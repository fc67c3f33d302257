package service

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"ptgsched/internal/scenario"
)

// Structural campaign caps, shared by the synchronous endpoint and the
// job subsystem. These bound per-point cost; the *cardinality* caps —
// points per request, total expansion, job sizes — are configurable per
// Service through Options.Limits and default to the Default* values
// below.
const (
	// MaxCampaignNPTGs bounds the per-point batch size, matching the
	// schedule endpoint's count cap.
	MaxCampaignNPTGs = 64
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
)

// Default admission limits. The streaming pipeline — lazy point
// generation, slot-based aggregation, spooled job results — keeps the
// per-point memory cost of a sweep to bits and slots, so the defaults are
// CPU-budget numbers (how much work one request may queue), far above the
// old materialize-everything caps.
const (
	// DefaultMaxCampaignPoints bounds the points one synchronous request
	// executes. A campaign occupies one pool worker for its whole sweep,
	// so this is a latency budget, not a memory one.
	DefaultMaxCampaignPoints = 16_384
	// DefaultMaxCampaignExpansion bounds the total expansion a request
	// may sweep a shard of. Expansion cardinality is arithmetic
	// (EstimatePoints) and points are generated lazily, so the cap
	// reflects how much of a sweep may be aggregated per request, not
	// what fits in server memory.
	DefaultMaxCampaignExpansion = 1 << 24
	// DefaultMaxJobPoints bounds one asynchronous job. Job results spool
	// to disk (13 bytes per point resident), so the budget is wall-clock
	// and spool space; truly unbounded sweeps belong to
	// ptgbench -campaign -store.
	DefaultMaxJobPoints = 1 << 20
	// DefaultMaxJobBacklog bounds the total points across all live jobs.
	DefaultMaxJobBacklog = 2 << 20
)

// Limits are the per-Service campaign and job admission caps, set through
// Options.Limits; zero fields take the Default* constants.
type Limits struct {
	// CampaignPoints bounds the points one synchronous campaign request
	// may execute.
	CampaignPoints int
	// CampaignExpansion bounds the total expansion a synchronous request
	// may address, sharded or not.
	CampaignExpansion int
	// JobPoints bounds the expansion of one asynchronous job.
	JobPoints int
	// JobBacklog bounds the total points across all live (queued or
	// running) jobs.
	JobBacklog int
}

// withDefaults fills unset fields.
func (l Limits) withDefaults() Limits {
	if l.CampaignPoints <= 0 {
		l.CampaignPoints = DefaultMaxCampaignPoints
	}
	if l.CampaignExpansion <= 0 {
		l.CampaignExpansion = DefaultMaxCampaignExpansion
	}
	if l.JobPoints <= 0 {
		l.JobPoints = DefaultMaxJobPoints
	}
	if l.JobBacklog <= 0 {
		l.JobBacklog = DefaultMaxJobBacklog
	}
	return l
}

// CampaignRequest describes one declarative campaign sweep: an inline
// scenario spec (the scenario package's JSON format, also the format of
// the checked-in specs under examples/) and an optional shard selector.
type CampaignRequest struct {
	// Spec is the campaign spec. Unknown fields are rejected.
	Spec json.RawMessage `json:"spec"`
	// Shard, when set to "i/n", executes only that shard's points and
	// returns their per-point results (the JSONL records) instead of
	// aggregated tables; a client recombines shards with ptgbench
	// -campaign -merge or scenario.Aggregate.
	Shard string `json:"shard,omitempty"`
	// Workers bounds the sweep's intra-request parallelism; default 1 (a
	// campaign occupies one service worker; raise it only on services
	// sized for it). The server clamps it to GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
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

// CampaignResponse reports one campaign request: aggregated tables for a
// full sweep, per-point results for a shard.
type CampaignResponse struct {
	Name string `json:"name,omitempty"`
	// Points is the size of the full expansion; RunPoints the number this
	// request executed (smaller for shards).
	Points    int    `json:"points"`
	RunPoints int    `json:"run_points"`
	Shard     string `json:"shard,omitempty"`
	// Tables carries the aggregated summary (unsharded requests).
	Tables []CampaignTable `json:"tables,omitempty"`
	// Results carries per-point results (sharded requests), bit-exact
	// JSONL records.
	Results   []scenario.PointResult `json:"results,omitempty"`
	ElapsedMS float64                `json:"elapsed_ms"`
}

// campaignScenario is a CampaignRequest resolved and expanded. The
// executed share is an index set (a predicate over the lazy expansion),
// never a materialized point slice.
type campaignScenario struct {
	expansion *scenario.Expansion
	set       scenario.IndexSet
	shard     string
	workers   int
}

// resolve parses, validates and expands the request on the caller's
// goroutine, so malformed or oversized campaigns fail fast without a
// queue slot.
func (r CampaignRequest) resolve(lim Limits) (campaignScenario, error) {
	e, set, err := resolveSweep("campaign", r.Spec, r.Shard, lim.CampaignExpansion, lim.CampaignPoints)
	if err != nil {
		return campaignScenario{}, err
	}
	return campaignScenario{expansion: e, set: set, shard: r.Shard, workers: clampWorkers(r.Workers)}, nil
}

// resolveSweep is the one spec → (expansion, executed set) resolver behind
// the synchronous campaign endpoint and the job subsystem: structural caps,
// arithmetic cardinality, expansion, shard selection. The two differ only
// in their caps: expansionCap bounds the whole expansion even sharded,
// runCap the points the selected shard executes (a job passes its point
// cap as both — its spool index is addressed by global point index).
func resolveSweep(kind string, raw json.RawMessage, shard string, expansionCap, runCap int) (*scenario.Expansion, scenario.IndexSet, error) {
	var none scenario.IndexSet
	if len(raw) == 0 {
		return nil, none, fmt.Errorf("service: %s request needs a spec", kind)
	}
	spec, err := resolveSpecCaps(raw)
	if err != nil {
		return nil, none, err
	}

	// Reject oversized sweeps arithmetically before the expansion
	// resolves anything: the shard selector divides the executed share,
	// so it enters the budget check, not the expansion.
	shardIdx, shardN := 0, 1
	if shard != "" {
		if shardIdx, shardN, err = scenario.ParseShard(shard); err != nil {
			return nil, none, err
		}
	}
	if _, points, err := scenario.EstimatePoints(spec); err != nil {
		return nil, none, err
	} else if points > expansionCap {
		return nil, none, fmt.Errorf("service: %s expands to %d points, server cap is %d even sharded (use ptgbench -campaign for larger sweeps)",
			kind, points, expansionCap)
	} else if points > runCap*shardN {
		return nil, none, fmt.Errorf("service: %s would execute ~%d points per shard, cap is %d (shard it further, or use ptgbench -campaign)",
			kind, points/shardN, runCap)
	}

	e, err := scenario.Expand(spec)
	if err != nil {
		return nil, none, err
	}
	set := e.All()
	if shard != "" {
		if set, err = e.Shard(shardIdx, shardN); err != nil {
			return nil, none, err
		}
	}
	if set.Len() > runCap {
		return nil, none, fmt.Errorf("service: %s executes %d points, cap is %d (shard it, or use ptgbench -campaign)",
			kind, set.Len(), runCap)
	}
	return e, set, nil
}

// clampWorkers applies the intra-request parallelism policy shared by the
// synchronous campaign endpoint and the job subsystem: default 1 (one
// request occupies one service worker), capped at GOMAXPROCS.
func clampWorkers(w int) int {
	if w <= 0 {
		w = 1
	}
	if max := runtime.GOMAXPROCS(0); w > max {
		return max
	}
	return w
}

// Campaign runs one declarative campaign sweep through the worker pool.
// Unsharded requests stream every completed point straight into the
// incremental aggregator — results are never materialized; sharded
// requests return their (cap-bounded) per-point results. It is safe for
// concurrent use.
func (s *Service) Campaign(ctx context.Context, req CampaignRequest) (*CampaignResponse, error) {
	cs, err := req.resolve(s.opts.Limits)
	if err != nil {
		return nil, s.invalid(err)
	}
	return s.campaign(ctx, cs)
}

func (s *Service) campaign(ctx context.Context, cs campaignScenario) (*CampaignResponse, error) {
	return submit[CampaignResponse](ctx, s, "campaign", func(ctx context.Context, _ *scenario.Scratch) (any, error) {
		started := time.Now()
		// With workers > 1 the points run on the sweep pool's goroutines,
		// outside runSafely's recover; the sweep itself turns a panicking
		// point into the request's error. The request deadline stops the
		// sweep, so a client that gave up does not keep the worker.
		o := scenario.SweepOptions{Workers: cs.workers, Memo: s.memoFor(cs.expansion), Context: ctx}
		out := &CampaignResponse{
			Name:      cs.expansion.Spec.Name,
			Points:    cs.expansion.NumPoints(),
			RunPoints: cs.set.Len(),
			Shard:     cs.shard,
		}
		if cs.shard == "" {
			agg := cs.expansion.NewAggregator()
			if err := cs.expansion.Each(cs.set, o, agg.Add); err != nil {
				return nil, err
			}
			tables, err := agg.Tables()
			if err != nil {
				return nil, err
			}
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
		} else {
			results, err := cs.expansion.Run(cs.set, o)
			if err != nil {
				return nil, err
			}
			out.Results = results
		}
		out.ElapsedMS = float64(time.Since(started).Microseconds()) / 1e3
		return out, nil
	})
}
