package scenario

import (
	"fmt"

	"ptgsched/internal/bitset"
	"ptgsched/internal/experiment"
	"ptgsched/internal/metrics"
)

// Aggregator is the incremental, order-insensitive campaign reduction and
// the one owner of the result slot layout: results are fed one at a time
// with Add — in any order, from any shard, store segment or stream — and
// reduce into fixed per-group slots, so the final Tables are bit-identical
// to experiment.Run's reduction order no matter how the results arrived.
// Memory is 3 float64 slots per (point, column) plus one seen bit per
// point of every group a result has touched, independent of result names,
// slice headers or arrival buffering; a reduction that only ever sees a
// selection of the points (a query) pays for the groups it touches.
//
// Concurrency: an Aggregator is not synchronized; stream into it from one
// goroutine (Expansion.Each already serializes its emit calls).
type Aggregator struct {
	e *Expansion
	// proj[c] ≥ 0 marks cell c's results as projected to one strategy
	// column; nil keeps every cell's full columns (see Columns).
	proj []int
	// groups[g] is group g = cell*len(nptgs) + nidx, allocated on first
	// touch: vals is a flat [metric][column][slot] layout of 3 × columns ×
	// (reps × platforms) float64s and seen marks its filled slots. Slot
	// order within a group is (rep, platform) — exactly the global
	// enumeration order — so every reduction sums in experiment.Run's
	// order regardless of the order the slots were filled in.
	groups []group
	added  int
}

type group struct {
	vals []float64
	seen bitset.Set
}

// NewAggregator returns an empty incremental reduction over the
// expansion's full results: every cell's strategy columns.
func (e *Expansion) NewAggregator() *Aggregator { return e.NewProjectedAggregator(nil) }

// NewProjectedAggregator returns an empty incremental reduction whose
// cell c's results carry the one strategy column proj[c] where proj[c] ≥
// 0, and the cell's full strategy columns where it is negative or proj is
// nil — a reader's projection, per cell. Tables needs every cell's full
// columns; Filled and Values read any.
func (e *Expansion) NewProjectedAggregator(proj []int) *Aggregator {
	return &Aggregator{e: e, proj: proj, groups: make([]group, len(e.Cells)*len(e.nptgs))}
}

// Columns returns how many strategy columns cell c's results carry: 1
// where the aggregator's projection keeps one, the cell's strategy count
// otherwise.
func (a *Aggregator) Columns(c int) int {
	if a.proj != nil && a.proj[c] >= 0 {
		return 1
	}
	return len(a.e.Cells[c].Config.Strategies)
}

// Added returns the number of results absorbed so far.
func (a *Aggregator) Added() int { return a.added }

// locate returns point i's group and its slot within the group.
func (a *Aggregator) locate(i int) (g, slot int) {
	e := a.e
	slots := e.reps * len(e.Platforms)
	return i / slots, i % slots
}

// Seen reports whether point i's result has already been absorbed. It is
// the membership view of the duplicate check Add enforces, so a caller
// merging streams that may overlap (a coordinator re-fetching a
// reassigned shard, a resumed merge) can skip duplicates instead of
// treating Add's rejection as an error.
func (a *Aggregator) Seen(i int) bool {
	if i < 0 || i >= a.e.numPoints {
		return false
	}
	g, slot := a.locate(i)
	return a.groups[g].seen.Get(slot)
}

// Add absorbs one point result, validating it against the expansion:
// out-of-range indices, cell mismatches (a stale shard), wrong column
// counts and duplicates are rejected, in that order.
func (a *Aggregator) Add(r PointResult) error {
	e := a.e
	if r.Index < 0 || r.Index >= e.numPoints {
		return fmt.Errorf("scenario: result index %d outside expansion", r.Index)
	}
	if r.Cell != e.CellOf(r.Index) {
		return fmt.Errorf("scenario: result %d is for cell %d, expansion says %d (stale shard?)",
			r.Index, r.Cell, e.CellOf(r.Index))
	}
	nc := a.Columns(r.Cell)
	if len(r.Unfairness) != nc || len(r.Makespan) != nc || len(r.Rel) != nc {
		return fmt.Errorf("scenario: result %d has wrong strategy count", r.Index)
	}
	gi, slot := a.locate(r.Index)
	g := &a.groups[gi]
	slots := e.reps * len(e.Platforms)
	if g.vals == nil {
		g.vals = make([]float64, 3*nc*slots)
		g.seen = bitset.New(slots)
	}
	if g.seen.Set(slot) {
		return fmt.Errorf("scenario: duplicate result for point %d", r.Index)
	}
	a.added++
	for s := 0; s < nc; s++ {
		g.vals[(0*nc+s)*slots+slot] = r.Unfairness[s]
		g.vals[(1*nc+s)*slots+slot] = r.Makespan[s]
		g.vals[(2*nc+s)*slots+slot] = r.Rel[s]
	}
	return nil
}

// Filled returns how many results group (cell, ni) — cell's points at its
// ni-th NPTGs value — has absorbed.
func (a *Aggregator) Filled(cell, ni int) int {
	return a.groups[cell*len(a.e.nptgs)+ni].seen.Count()
}

// Values appends to dst the values metric m's column col holds in group
// (cell, ni), one per filled slot in point order, and returns the
// extended slice: the partial view of a group a selection cuts. A mean
// over it sums in point order, whatever order the results arrived in.
func (a *Aggregator) Values(dst []float64, cell, ni int, m experiment.Metric, col int) []float64 {
	g := a.groups[cell*len(a.e.nptgs)+ni]
	if g.vals == nil {
		return dst
	}
	slots := g.seen.Len()
	base := (int(m)*a.Columns(cell) + col) * slots
	for slot := 0; slot < slots; slot++ {
		if g.seen.Get(slot) {
			dst = append(dst, g.vals[base+slot])
		}
	}
	return dst
}

// Tables finalizes the reduction into per-cell summary tables. The result
// set must be complete — every point added exactly once (duplicates were
// already rejected by Add). The reduction visits slots in global point
// order regardless of arrival order, so recombined shards aggregate
// bit-identically to an unsharded run; it is also exactly experiment.Run's
// reduction, so a spec mirroring a paper figure reproduces that figure's
// numbers.
func (a *Aggregator) Tables() ([]Table, error) {
	e := a.e
	if a.added != e.numPoints {
		return nil, fmt.Errorf("scenario: %d results for %d points (missing shards?)",
			a.added, e.numPoints)
	}
	slots := e.reps * len(e.Platforms)
	var tables []Table
	for _, c := range e.Cells {
		cfg := c.Config
		ns := len(cfg.Strategies)
		res := &experiment.Result{Config: cfg}
		for ni, n := range cfg.NPTGs {
			buf := a.groups[c.Index*len(e.nptgs)+ni].vals
			pt := experiment.Point{
				NPTGs:          n,
				Unfairness:     make([]float64, ns),
				AvgMakespan:    make([]float64, ns),
				RelMakespan:    make([]float64, ns),
				UnfairnessStd:  make([]float64, ns),
				RelMakespanStd: make([]float64, ns),
				Runs:           slots,
			}
			for s := 0; s < ns; s++ {
				unf := buf[(0*ns+s)*slots : (0*ns+s)*slots+slots]
				mak := buf[(1*ns+s)*slots : (1*ns+s)*slots+slots]
				rel := buf[(2*ns+s)*slots : (2*ns+s)*slots+slots]
				pt.Unfairness[s] = metrics.Mean(unf)
				pt.AvgMakespan[s] = metrics.Mean(mak)
				pt.RelMakespan[s] = metrics.Mean(rel)
				pt.UnfairnessStd[s] = metrics.StdDev(unf)
				pt.RelMakespanStd[s] = metrics.StdDev(rel)
			}
			res.Points = append(res.Points, pt)
		}
		tables = append(tables, Table{Cell: c, Result: res})
	}
	return tables, nil
}
