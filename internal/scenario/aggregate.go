package scenario

import (
	"fmt"

	"ptgsched/internal/bitset"
	"ptgsched/internal/experiment"
	"ptgsched/internal/metrics"
)

// Aggregator is the incremental, order-insensitive campaign reduction:
// results are fed one at a time with Add — in any order, from any shard,
// store segment or stream — and reduce into fixed per-cell slots, so the
// final Tables are bit-identical to experiment.Run's reduction order no
// matter how the results arrived. It is the streaming replacement for
// materializing a full []PointResult: memory is 3 float64 slots per
// (point, strategy) plus one seen-bit per point, independent of result
// names, slice headers or arrival buffering.
//
// Concurrency: an Aggregator is not synchronized; stream into it from one
// goroutine (Expansion.Each already serializes its emit calls).
type Aggregator struct {
	e *Expansion
	// groups[g] is the slot block of group g = cell*len(nptgs) + nidx,
	// allocated on first touch: a flat [metric][strategy][slot] layout of
	// 3 × ns × (reps × platforms) float64s. Slot order within a group is
	// (rep, platform) — exactly the global enumeration order — so the
	// final Mean/StdDev passes sum in experiment.Run's order regardless of
	// the order the slots were filled in.
	groups [][]float64
	seen   bitset.Set
	added  int
}

// NewAggregator returns an empty incremental reduction over the expansion.
func (e *Expansion) NewAggregator() *Aggregator {
	return &Aggregator{
		e:      e,
		groups: make([][]float64, len(e.Cells)*len(e.nptgs)),
		seen:   bitset.New(e.numPoints),
	}
}

// Added returns the number of results absorbed so far.
func (a *Aggregator) Added() int { return a.added }

// Seen reports whether point i's result has already been absorbed. It is
// the membership view of the duplicate check Add enforces, so a caller
// merging streams that may overlap (a coordinator re-fetching a
// reassigned shard, a resumed merge) can skip duplicates instead of
// treating Add's rejection as an error.
func (a *Aggregator) Seen(i int) bool { return a.seen.Get(i) }

// Add absorbs one point result, validating it against the expansion:
// out-of-range indices, duplicates, cell mismatches (a stale shard) and
// wrong strategy counts are rejected.
func (a *Aggregator) Add(r PointResult) error {
	e := a.e
	if r.Index < 0 || r.Index >= e.numPoints {
		return fmt.Errorf("scenario: result index %d outside expansion", r.Index)
	}
	if r.Cell != e.CellOf(r.Index) {
		return fmt.Errorf("scenario: result %d is for cell %d, expansion says %d (stale shard?)",
			r.Index, r.Cell, e.CellOf(r.Index))
	}
	ns := len(e.Cells[r.Cell].Config.Strategies)
	if len(r.Unfairness) != ns || len(r.Makespan) != ns || len(r.Rel) != ns {
		return fmt.Errorf("scenario: result %d has wrong strategy count", r.Index)
	}
	if a.seen.Set(r.Index) {
		return fmt.Errorf("scenario: duplicate result for point %d", r.Index)
	}
	a.added++

	nPf := len(e.Platforms)
	rem := r.Index % e.perCell
	ni := rem / (e.reps * nPf)
	rem %= e.reps * nPf
	slot := rem // rep*nPf + platform: the point's position in its group
	slots := e.reps * nPf

	g := r.Cell*len(e.nptgs) + ni
	buf := a.groups[g]
	if buf == nil {
		buf = make([]float64, 3*ns*slots)
		a.groups[g] = buf
	}
	for s := 0; s < ns; s++ {
		buf[(0*ns+s)*slots+slot] = r.Unfairness[s]
		buf[(1*ns+s)*slots+slot] = r.Makespan[s]
		buf[(2*ns+s)*slots+slot] = r.Rel[s]
	}
	return nil
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
			buf := a.groups[c.Index*len(e.nptgs)+ni]
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
