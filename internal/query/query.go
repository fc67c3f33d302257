// Package query is the result-store query layer: it compiles a predicate
// (family, strategy projection, index range) against a campaign expansion
// into a Plan — the set of matching cells, their contiguous global-index
// ranges, and the per-cell projection column — so readers can push the
// predicate down to segment byte ranges instead of decoding every record
// and filtering afterwards.
//
// The enumeration arithmetic makes pushdown exact: the global order is
// cell-major, so every cell (and therefore every family and strategy
// predicate, which resolve to cell sets) is a contiguous index run, and an
// index range intersects it in O(1). A Plan is pure derived data, compiled
// per call: one pass over the cells, cheaper than any lookup keyed by the
// spec (hashing the spec alone costs several compilations).
//
// Concurrency: a Plan is immutable after Compile and safe for concurrent
// use. A GroupAggregator is not synchronized — feed it from one goroutine.
package query

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ptgsched/internal/scenario"
)

// ErrMalformedRecord classifies a stored record whose shape contradicts
// its cell — e.g. fewer strategy columns than the cell declares, so a
// projection would slice out of range. Readers surface it as a corrupt-
// data error instead of panicking mid-stream.
var ErrMalformedRecord = errors.New("query: malformed result record")

// Query is the normalized predicate over a campaign's point results.
// The zero value selects nothing — its range is [0,0) — and
// Query{To: NoLimit} selects every point to the end of the expansion.
type Query struct {
	// Family keeps only points of cells with this PTG family (random,
	// fft, strassen). Empty keeps all families.
	Family string
	// Strategy projects every result down to the single named strategy
	// column, and drops cells that do not carry the label. Empty keeps
	// all columns and all cells.
	Strategy string
	// From is the inclusive lower bound on global point indices.
	From int
	// To is the exclusive upper bound, or NoLimit for the end of the
	// expansion; a To below NoLimit is refused. Zero is a real bound:
	// [0,0) is the empty range, not a request for everything.
	To int
}

// NoLimit is the Query.To value meaning "the end of the expansion".
const NoLimit = -1

// String renders the predicate for error messages and logs.
func (q Query) String() string {
	var parts []string
	if q.Family != "" {
		parts = append(parts, "family="+q.Family)
	}
	if q.Strategy != "" {
		parts = append(parts, "strategy="+q.Strategy)
	}
	if q.From != 0 || q.To >= 0 {
		to := "end"
		if q.To >= 0 {
			to = strconv.Itoa(q.To)
		}
		parts = append(parts, fmt.Sprintf("range=[%d,%s)", q.From, to))
	}
	if len(parts) == 0 {
		return "all"
	}
	return strings.Join(parts, " ")
}

// Plan is a query compiled against one expansion: the matching cells,
// the normalized index range, and the projection columns. Immutable.
type Plan struct {
	e *scenario.Expansion
	q Query

	// From/To is the normalized absolute range: 0 ≤ From ≤ To ≤ NumPoints.
	From, To int

	cellSet []bool // indexed by cell: cell passes the family+strategy filter
	cells   []int  // the matching cells, ascending
	// stratCol[ci] is the projection column of q.Strategy in cell ci, -1
	// when the cell lacks the label; nil when no projection is requested.
	stratCol []int
}

// Compile validates the query against the expansion and derives the plan.
// Unknown families or strategy labels, negative or inverted ranges (a To
// below NoLimit included), and a From at or beyond the expansion are
// errors — a selective query that can only ever match nothing is a client
// mistake, not an empty stream.
func Compile(e *scenario.Expansion, q Query) (*Plan, error) {
	n := e.NumPoints()
	if q.From < 0 {
		return nil, fmt.Errorf("query: from %d is negative", q.From)
	}
	if q.From > 0 && q.From >= n {
		return nil, fmt.Errorf("query: from %d outside expansion [0,%d)", q.From, n)
	}
	if q.To < NoLimit {
		return nil, fmt.Errorf("query: to %d is neither a bound ≥ 0 nor %d (the end of the expansion)", q.To, NoLimit)
	}
	to := q.To
	if to == NoLimit || to > n {
		to = n
	}
	if to < q.From {
		return nil, fmt.Errorf("query: result range [%d,%d) is invalid", q.From, q.To)
	}

	p := &Plan{e: e, q: q, From: q.From, To: to,
		cellSet: make([]bool, len(e.Cells))}
	if q.Strategy != "" {
		p.stratCol = make([]int, len(e.Cells))
	}
	famSeen, stratSeen := q.Family == "", q.Strategy == ""
	for ci, c := range e.Cells {
		if q.Strategy != "" {
			p.stratCol[ci] = -1
		}
		if q.Family != "" {
			if c.Family.String() != q.Family {
				continue
			}
			famSeen = true
		}
		if q.Strategy != "" {
			col := -1
			for li, l := range c.Config.Labels {
				if l == q.Strategy {
					col = li
					break
				}
			}
			if col < 0 {
				continue
			}
			p.stratCol[ci] = col
			stratSeen = true
		}
		p.cellSet[ci] = true
		p.cells = append(p.cells, ci)
	}
	if !famSeen {
		return nil, fmt.Errorf("query: no cell of family %q in this campaign", q.Family)
	}
	if !stratSeen {
		return nil, fmt.Errorf("query: no strategy labeled %q in this campaign", q.Strategy)
	}
	return p, nil
}

// Query returns the predicate the plan was compiled from.
func (p *Plan) Query() Query { return p.q }

// Expansion returns the expansion the plan was compiled against.
func (p *Plan) Expansion() *scenario.Expansion { return p.e }

// Cells returns the matching cell indices, ascending. Callers must not
// mutate the returned slice.
func (p *Plan) Cells() []int { return p.cells }

// Matches is the full per-point predicate: the residual filter readers
// apply to records pulled from byte ranges that straddle the plan's
// boundaries.
func (p *Plan) Matches(i int) bool {
	return i >= p.From && i < p.To && p.cellSet[p.e.CellOf(i)]
}

// OverlapsSelection reports whether any index of the closed interval
// [lo, hi] belongs to the plan's selection — the exact pruning test for
// an index run that records its min/max point index: the interval is
// clamped to [From, To) and the matching-cell list is binary-searched
// over the cell span the clamped interval covers (cells are contiguous
// index ranges, so interval-to-cell-span is O(1)).
func (p *Plan) OverlapsSelection(lo, hi int) bool {
	if lo >= p.To || hi < p.From {
		return false
	}
	if lo < p.From {
		lo = p.From
	}
	if hi >= p.To {
		hi = p.To - 1
	}
	cLo, cHi := p.e.CellOf(lo), p.e.CellOf(hi)
	j := sort.SearchInts(p.cells, cLo)
	return j < len(p.cells) && p.cells[j] <= cHi
}

// EachRange calls fn for every maximal contiguous global-index range the
// plan selects, ascending: matching cells' ranges are intersected with
// [From, To) and adjacent cells merged. This is the minimal set of index
// runs a reader has to visit.
func (p *Plan) EachRange(fn func(lo, hi int) error) error {
	runLo, runHi := 0, 0 // current open run, empty when runLo == runHi
	for _, ci := range p.cells {
		lo, hi := p.e.CellRange(ci)
		if lo < p.From {
			lo = p.From
		}
		if hi > p.To {
			hi = p.To
		}
		if lo >= hi {
			continue
		}
		if lo == runHi && runHi > runLo {
			runHi = hi // contiguous with the open run
			continue
		}
		if runHi > runLo {
			if err := fn(runLo, runHi); err != nil {
				return err
			}
		}
		runLo, runHi = lo, hi
	}
	if runHi > runLo {
		return fn(runLo, runHi)
	}
	return nil
}

// NumSelected returns how many points the plan selects — the sum of its
// EachRange extents, computed arithmetically.
func (p *Plan) NumSelected() int {
	n := 0
	p.EachRange(func(lo, hi int) error { n += hi - lo; return nil })
	return n
}

// ProjectColumn returns the projection column of cell ci, or -1
// (scenario.AllColumns) when no projection is requested, the cell lacks
// the label — but such cells never match — or ci names no cell.
func (p *Plan) ProjectColumn(ci int) int {
	if p.stratCol == nil || ci < 0 || ci >= len(p.stratCol) {
		return -1
	}
	return p.stratCol[ci]
}

// Project applies the plan's strategy projection to one record: the
// record is narrowed to the single selected column. Records are validated
// first — a record naming no cell of the campaign, or with fewer columns
// than its cell declares, is a malformed (torn or foreign) record and
// yields ErrMalformedRecord, never a panic. Without a projection the
// record is returned unchanged.
func (p *Plan) Project(r scenario.PointResult) (scenario.PointResult, error) {
	if p.stratCol == nil {
		return r, nil
	}
	if r.Cell < 0 || r.Cell >= len(p.stratCol) {
		return scenario.PointResult{}, fmt.Errorf("%w: point %d names cell %d, campaign has %d",
			ErrMalformedRecord, r.Index, r.Cell, len(p.stratCol))
	}
	k := p.stratCol[r.Cell]
	if k < 0 {
		return r, nil
	}
	if k >= len(r.Unfairness) || k >= len(r.Makespan) || k >= len(r.Rel) {
		return scenario.PointResult{}, fmt.Errorf(
			"%w: point %d carries %d/%d/%d strategy columns, projection %q needs column %d",
			ErrMalformedRecord, r.Index, len(r.Unfairness), len(r.Makespan), len(r.Rel), p.q.Strategy, k)
	}
	return scenario.PointResult{
		Index: r.Index, Cell: r.Cell, Name: r.Name,
		Unfairness: r.Unfairness[k : k+1],
		Makespan:   r.Makespan[k : k+1],
		Rel:        r.Rel[k : k+1],
	}, nil
}

// CompileCached is Compile.
//
// Deprecated: plans are compiled per call; use Compile.
func CompileCached(e *scenario.Expansion, q Query) (*Plan, error) { return Compile(e, q) }
