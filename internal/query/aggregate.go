package query

import (
	"fmt"

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
// summary rows. Unlike scenario.Aggregator it tolerates partial groups —
// a predicate that cuts a cell's index range mid-group still reduces
// deterministically, because slots are filled by position and the final
// means visit filled slots in global point order regardless of arrival
// order. Feed it records already passed through the plan's Project.
//
// Not synchronized: stream into it from one goroutine.
type GroupAggregator struct {
	p *Plan
	// groups[g], g = cell*numNPTGs + nidx, is a flat [metric][col][slot]
	// block like scenario.Aggregator's, where col counts the projected
	// columns (1 under a strategy projection, the cell's strategy count
	// otherwise). filled[g] marks which slots hold a result.
	groups [][]float64
	filled [][]bool
}

// NewGroupAggregator returns an empty filtered reduction under the plan.
func NewGroupAggregator(p *Plan) *GroupAggregator {
	e := p.Expansion()
	n := len(e.Cells) * e.NumNPTGs()
	return &GroupAggregator{p: p, groups: make([][]float64, n), filled: make([][]bool, n)}
}

// cols returns how many strategy columns cell ci's records carry after
// the plan's projection.
func (a *GroupAggregator) cols(ci int) int {
	if a.p.ProjectColumn(ci) >= 0 {
		return 1
	}
	return len(a.p.Expansion().Cells[ci].Config.Strategies)
}

// Add absorbs one projected point result. Records outside the plan,
// duplicates, and records whose column count contradicts the projection
// are rejected.
func (a *GroupAggregator) Add(r scenario.PointResult) error {
	e := a.p.Expansion()
	if r.Index < 0 || r.Index >= e.NumPoints() {
		return fmt.Errorf("query: result index %d outside expansion", r.Index)
	}
	if !a.p.Matches(r.Index) {
		return fmt.Errorf("query: result %d outside the plan's selection (%s)", r.Index, a.p.Query())
	}
	cell, nidx, rep, pf := e.CoordsOf(r.Index)
	if r.Cell != cell {
		return fmt.Errorf("query: result %d is for cell %d, expansion says %d (stale shard?)",
			r.Index, r.Cell, cell)
	}
	nc := a.cols(cell)
	if len(r.Unfairness) != nc || len(r.Makespan) != nc || len(r.Rel) != nc {
		return fmt.Errorf("%w: point %d carries %d/%d/%d strategy columns, group wants %d",
			ErrMalformedRecord, r.Index, len(r.Unfairness), len(r.Makespan), len(r.Rel), nc)
	}

	slots := e.GroupSlots()
	slot := rep*len(e.Platforms) + pf
	g := cell*e.NumNPTGs() + nidx
	if a.groups[g] == nil {
		a.groups[g] = make([]float64, 3*nc*slots)
		a.filled[g] = make([]bool, slots)
	}
	if a.filled[g][slot] {
		return fmt.Errorf("query: duplicate result for point %d", r.Index)
	}
	a.filled[g][slot] = true
	buf := a.groups[g]
	for s := 0; s < nc; s++ {
		buf[(0*nc+s)*slots+slot] = r.Unfairness[s]
		buf[(1*nc+s)*slots+slot] = r.Makespan[s]
		buf[(2*nc+s)*slots+slot] = r.Rel[s]
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
	vals := make([]float64, 0, e.GroupSlots())
	for _, ci := range a.p.Cells() {
		c := e.Cells[ci]
		nc := a.cols(ci)
		slots := e.GroupSlots()
		for ni := 0; ni < e.NumNPTGs(); ni++ {
			g := ci*e.NumNPTGs() + ni
			buf, fill := a.groups[g], a.filled[g]
			if buf == nil {
				continue
			}
			count := 0
			for _, ok := range fill {
				if ok {
					count++
				}
			}
			if count == 0 {
				continue
			}
			for s := 0; s < nc; s++ {
				label := a.p.Query().Strategy
				if label == "" {
					label = c.Config.Labels[s]
				}
				row := GroupRow{
					Cell:     ci,
					Label:    c.Label,
					Family:   c.Family.String(),
					NPTGs:    e.NPTGsAt(ni),
					Strategy: label,
					Count:    count,
				}
				for m := 0; m < 3; m++ {
					vals = vals[:0]
					col := buf[(m*nc+s)*slots : (m*nc+s)*slots+slots]
					for slot, ok := range fill {
						if ok {
							vals = append(vals, col[slot])
						}
					}
					mean := metrics.Mean(vals)
					switch m {
					case 0:
						row.Unfair = mean
					case 1:
						row.Makespan = mean
					case 2:
						row.Rel = mean
					}
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}
