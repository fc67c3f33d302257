package service

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"ptgsched/internal/scenario"
)

// Campaign and job admission caps. The structural ones bound per-point
// cost; the cardinality ones bound how many points one request may sweep.
// Both are checked on the submitting goroutine, before a request takes a
// queue slot.
const (
	// MaxCampaignNPTGs bounds the per-point batch size, matching the
	// schedule endpoint's count cap.
	MaxCampaignNPTGs = 64
	// MaxCampaignTasks bounds a random graph's tasks (the paper's: ≤ 50).
	MaxCampaignTasks = 1000
	// MaxCampaignProcs bounds one inline cluster's processor count (the
	// mapper allocates per-processor state for every run).
	MaxCampaignProcs = 4096
	// MaxCampaignClusters bounds one inline platform's cluster count.
	MaxCampaignClusters = 64
	// MaxCampaignStrategies bounds the comparison set: every strategy
	// entry multiplies the per-point work, so it is part of the budget.
	MaxCampaignStrategies = 64
	// MaxCampaignEvents bounds the per-point dynamic event budget a spec's
	// events block may imply (scripted events plus the worst-case draw of
	// every failure process): each event replays through the online engine
	// on every point, so it multiplies per-point work like a strategy does.
	MaxCampaignEvents = 256

	// MaxCampaignPoints bounds the expansion of one synchronous campaign.
	// A campaign occupies one pool worker for its whole sweep and streams
	// its points into the aggregator, so this is a latency budget, not a
	// memory one.
	MaxCampaignPoints = 16_384
	// MaxJobPoints bounds the expansion of one asynchronous job, sharded
	// or not (the job's store keeps a done bit per expansion point).
	// Job results live in that store on disk (1 bit per point plus the
	// segment's run index resident), so the budget is wall-clock and
	// disk; truly unbounded sweeps belong to ptgbench -campaign -store.
	MaxJobPoints = 1 << 20
	// MaxJobBacklog bounds the total points across all live (queued or
	// running) jobs.
	MaxJobBacklog = 2 << 20
)

// CampaignRequest describes one declarative campaign sweep: an inline
// scenario spec (the scenario package's JSON format, also the format of
// the checked-in specs under examples/). The service answers with the
// aggregated tables; a sweep's per-point records, or one shard of them,
// come from a job (JobRequest).
type CampaignRequest struct {
	// Spec is the campaign spec. Unknown fields are rejected.
	Spec json.RawMessage `json:"spec"`
}

// CampaignRow is one aggregated summary row: one NPTGs value of a cell,
// one entry per strategy.
type CampaignRow struct {
	NPTGs int `json:"nptgs"`
	// Runs is the number of scenario points aggregated into the row.
	Runs           int       `json:"runs"`
	Unfairness     []float64 `json:"unfairness"`
	AvgMakespan    []float64 `json:"avg_makespan"`
	RelMakespan    []float64 `json:"rel_makespan"`
	UnfairnessStd  []float64 `json:"unfairness_std"`
	RelMakespanStd []float64 `json:"rel_makespan_std"`
}

// CampaignTable is one cell's aggregated summary.
type CampaignTable struct {
	// Cell is the cell label, e.g. "random[t=20 w=0.5 r=0.2 d=0.8 j=1 mixed]".
	Cell   string        `json:"cell"`
	Family string        `json:"family"`
	Labels []string      `json:"labels"`
	Rows   []CampaignRow `json:"rows"`
}

// CampaignResponse reports one campaign sweep as aggregated tables.
type CampaignResponse struct {
	Name string `json:"name,omitempty"`
	// Points is the size of the expansion the tables aggregate.
	Points    int             `json:"points"`
	Tables    []CampaignTable `json:"tables,omitempty"`
	ElapsedMS float64         `json:"elapsed_ms"`
}

// resolve parses, validates and expands the request on the caller's
// goroutine, so malformed or oversized campaigns fail fast without a
// queue slot.
func (r CampaignRequest) resolve() (*scenario.Expansion, error) {
	e, _, err := resolveSweep("campaign", r.Spec, "", MaxCampaignPoints)
	return e, err
}

// resolveSweep is the one spec → (expansion, executed set) resolver behind
// the synchronous campaign endpoint and the job subsystem: structural caps,
// the arithmetic cardinality check against maxPoints (before anything is
// expanded), expansion, shard selection. The cap bounds the whole
// expansion even for a shard: a job's store is addressed by global point
// index.
func resolveSweep(kind string, raw json.RawMessage, shard string, maxPoints int) (*scenario.Expansion, scenario.IndexSet, error) {
	var none scenario.IndexSet
	if len(raw) == 0 {
		return nil, none, fmt.Errorf("service: %s request needs a spec", kind)
	}
	spec, err := resolveSpecCaps(raw)
	if err != nil {
		return nil, none, err
	}
	shardIdx, shardN := 0, 1
	if shard != "" {
		if shardIdx, shardN, err = scenario.ParseShard(shard); err != nil {
			return nil, none, err
		}
	}
	if _, points, err := scenario.EstimatePoints(spec); err != nil {
		return nil, none, err
	} else if points > maxPoints {
		return nil, none, fmt.Errorf("service: %s expands to %d points, server cap is %d (use ptgbench -campaign for larger sweeps)",
			kind, points, maxPoints)
	}

	e, err := scenario.Expand(spec)
	if err != nil {
		return nil, none, err
	}
	set, err := e.Shard(shardIdx, shardN)
	if err != nil {
		return nil, none, err
	}
	return e, set, nil
}

// Campaign runs one declarative campaign sweep on one pool worker,
// streaming every completed point straight into the incremental
// aggregator — results are never materialized. It is safe for concurrent
// use.
func (s *Service) Campaign(ctx context.Context, req CampaignRequest) (*CampaignResponse, error) {
	e, err := req.resolve()
	if err != nil {
		return nil, s.invalid(err)
	}
	return s.campaign(ctx, e)
}

func (s *Service) campaign(ctx context.Context, e *scenario.Expansion) (*CampaignResponse, error) {
	return submit[CampaignResponse](ctx, s, "campaign", func(ctx context.Context) (any, error) {
		started := time.Now()
		// The sweep runs inline on this worker's goroutine. It turns a
		// panicking point into the request's error, and the request
		// deadline stops it, so a client that gave up does not keep the
		// worker.
		o := scenario.SweepOptions{Workers: 1, Memo: s.memoFor(e), Context: ctx}
		agg := e.NewAggregator()
		if err := e.Each(e.All(), o, agg.Add); err != nil {
			return nil, err
		}
		tables, err := agg.Tables()
		if err != nil {
			return nil, err
		}
		out := &CampaignResponse{Name: e.Spec.Name, Points: e.NumPoints()}
		for _, tb := range tables {
			ct := CampaignTable{
				Cell:   tb.Cell.Label,
				Family: tb.Cell.Family.String(),
				Labels: tb.Result.Config.Labels,
			}
			for _, pt := range tb.Result.Points {
				ct.Rows = append(ct.Rows, CampaignRow{
					NPTGs:          pt.NPTGs,
					Runs:           pt.Runs,
					Unfairness:     pt.Unfairness,
					AvgMakespan:    pt.AvgMakespan,
					RelMakespan:    pt.RelMakespan,
					UnfairnessStd:  pt.UnfairnessStd,
					RelMakespanStd: pt.RelMakespanStd,
				})
			}
			out.Tables = append(out.Tables, ct)
		}
		out.ElapsedMS = float64(time.Since(started).Microseconds()) / 1e3
		return out, nil
	})
}
