package query

import (
	"errors"
	"fmt"
	"strings"

	"ptgsched/internal/experiment"
	"ptgsched/internal/metrics"
	"ptgsched/internal/scenario"
)

// GroupRow is one line of a filtered aggregation: the summary of one
// strategy column over one (cell, NPTGs) group's selected points.
type GroupRow struct {
	Cell     int     `json:"cell"`
	Label    string  `json:"label"`
	Family   string  `json:"family"`
	NPTGs    int     `json:"nptgs"`
	Strategy string  `json:"strategy"`
	Count    int     `json:"count"`
	Unfair   float64 `json:"unfairness"`
	Makespan float64 `json:"makespan"`
	Rel      float64 `json:"rel_makespan"`
}

// GroupAggregator reduces a filtered result stream into per-(cell, NPTGs)
// summary rows. The reduction is a scenario.Aggregator sized to the
// plan's projection; what is the query's own is the plan's selection
// check, the projection's column count, and the shaping of rows. Partial
// groups are tolerated — a predicate that cuts a cell's index range
// mid-group still reduces deterministically, because the aggregator fills
// slots by position and its partial view visits them in global point
// order regardless of arrival order. Feed it records already passed
// through the plan's Project.
//
// Not synchronized: stream into it from one goroutine.
type GroupAggregator struct {
	p   *Plan
	agg *scenario.Aggregator
}

// NewGroupAggregator returns an empty filtered reduction under the plan.
func NewGroupAggregator(p *Plan) *GroupAggregator {
	return &GroupAggregator{p: p, agg: p.e.NewProjectedAggregator(p.stratCol)}
}

// Add absorbs one projected point result. Its checks run in a fixed
// order — index in range, in the plan's selection, cell the expansion's,
// column count the projection's (ErrMalformedRecord), not a duplicate —
// and the query makes only the second and the fourth: the aggregator
// makes the rest, and its errors are reported under this package's name.
func (a *GroupAggregator) Add(r scenario.PointResult) error {
	e := a.p.Expansion()
	if !a.p.Matches(r.Index) {
		if r.Index >= 0 && r.Index < e.NumPoints() {
			return fmt.Errorf("query: result %d outside the plan's selection (%s)", r.Index, a.p.Query())
		}
	} else if r.Cell == e.CellOf(r.Index) {
		if nc := a.agg.Columns(r.Cell); len(r.Unfairness) != nc || len(r.Makespan) != nc || len(r.Rel) != nc {
			return fmt.Errorf("%w: point %d carries %d/%d/%d strategy columns, group wants %d",
				ErrMalformedRecord, r.Index, len(r.Unfairness), len(r.Makespan), len(r.Rel), nc)
		}
	}
	if err := a.agg.Add(r); err != nil {
		return errors.New("query" + strings.TrimPrefix(err.Error(), "scenario"))
	}
	return nil
}

// Rows finalizes the reduction: one row per (cell, NPTGs, strategy
// column) group that received at least one result, in global enumeration
// order. Partial groups summarize their filled slots only; Count says how
// many. Means visit slots in global point order, so the rows are
// bit-identical no matter how the stream was interleaved.
func (a *GroupAggregator) Rows() []GroupRow {
	e := a.p.Expansion()
	var rows []GroupRow
	var vals []float64
	for _, ci := range a.p.Cells() {
		c := e.Cells[ci]
		for ni, n := range c.Config.NPTGs {
			count := a.agg.Filled(ci, ni)
			if count == 0 {
				continue
			}
			if cap(vals) < count {
				vals = make([]float64, 0, count)
			}
			for s := 0; s < a.agg.Columns(ci); s++ {
				label := a.p.Query().Strategy
				if label == "" {
					label = c.Config.Labels[s]
				}
				rows = append(rows, GroupRow{
					Cell:     ci,
					Label:    c.Label,
					Family:   c.Family.String(),
					NPTGs:    n,
					Strategy: label,
					Count:    count,
					Unfair:   metrics.Mean(a.agg.Values(vals[:0], ci, ni, experiment.Unfairness, s)),
					Makespan: metrics.Mean(a.agg.Values(vals[:0], ci, ni, experiment.AvgMakespan, s)),
					Rel:      metrics.Mean(a.agg.Values(vals[:0], ci, ni, experiment.RelMakespan, s)),
				})
			}
		}
	}
	return rows
}
