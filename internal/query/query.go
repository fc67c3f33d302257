// Package query is the result-store query layer: it compiles a
// ResultQuery-shaped predicate (family, strategy projection, index range)
// against a campaign expansion into a Plan — the set of matching cells,
// their contiguous global-index ranges, and the per-cell projection
// column — so readers can push the predicate down to segment byte ranges
// instead of decoding every record and filtering afterwards.
//
// The enumeration arithmetic makes pushdown exact: the global order is
// cell-major, so every cell (and therefore every family and strategy
// predicate, which resolve to cell sets) is a contiguous index run, and an
// index range intersects it in O(1). A Plan is pure derived data; Compile
// is deterministic, so plans are memoized process-wide keyed by
// (spec digest, normalized query) — the dashboard pattern of re-issuing
// the same handful of selective queries pays compilation once.
//
// Concurrency: a Plan is immutable after Compile and safe for concurrent
// use; the memo cache and CacheStats are synchronized. A GroupAggregator
// is not synchronized — feed it from one goroutine.
package query

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ptgsched/internal/scenario"
)

// ErrMalformedRecord classifies a stored record whose shape contradicts
// its cell — e.g. fewer strategy columns than the cell declares, so a
// projection would slice out of range. Readers surface it as a corrupt-
// data error instead of panicking mid-stream.
var ErrMalformedRecord = errors.New("query: malformed result record")

// Query is the normalized predicate over a campaign's point results.
// The zero value selects everything.
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
	// To is the exclusive upper bound; negative means the end of the
	// expansion. Zero is a real bound: [0,0) is the empty range, not a
	// request for everything — callers encoding "unset" use -1 (NoLimit).
	To int
}

// NoLimit is the Query.To value meaning "the end of the expansion".
const NoLimit = -1

// Key returns the query's canonical cache-key form. Two queries selecting
// the same points under the same projection share a key (To clamping is
// applied by Compile, not here, so the key is expansion-independent only
// in its filter fields — the digest namespaces it).
func (q Query) Key() string {
	to := q.To
	if to < 0 {
		to = NoLimit
	}
	return q.Family + "\x00" + q.Strategy + "\x00" + strconv.Itoa(q.From) + "\x00" + strconv.Itoa(to)
}

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
// Unknown families or strategy labels, negative or inverted ranges, and a
// From at or beyond the expansion are errors — a selective query that can
// only ever match nothing is a client mistake, not an empty stream.
func Compile(e *scenario.Expansion, q Query) (*Plan, error) {
	n := e.NumPoints()
	if q.From < 0 {
		return nil, fmt.Errorf("query: from %d is negative", q.From)
	}
	if q.From > 0 && q.From >= n {
		return nil, fmt.Errorf("query: from %d outside expansion [0,%d)", q.From, n)
	}
	to := q.To
	if to < 0 || to > n {
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

// IndexRangeMatches reports whether any index in the closed interval
// [lo, hi] can match the plan's From/To range — the O(1) pruning test for
// an index run that records its min/max point index.
func (p *Plan) IndexRangeMatches(lo, hi int) bool {
	return lo < p.To && hi >= p.From
}

// OverlapsSelection reports whether any index of the closed interval
// [lo, hi] belongs to the plan's selection — the exact pruning test for
// an index run that records its min/max point index: the interval is
// clamped to [From, To) and the matching-cell list is binary-searched
// over the cell span the clamped interval covers (cells are contiguous
// index ranges, so interval-to-cell-span is O(1)).
func (p *Plan) OverlapsSelection(lo, hi int) bool {
	if !p.IndexRangeMatches(lo, hi) {
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

// ProjectColumn returns the projection column of cell ci, or -1 when no
// projection is requested (or the cell lacks the label — but such cells
// never match).
func (p *Plan) ProjectColumn(ci int) int {
	if p.stratCol == nil {
		return -1
	}
	return p.stratCol[ci]
}

// Project applies the plan's strategy projection to one record: the
// record is narrowed to the single selected column. Records are validated
// first — a record with fewer columns than its cell declares is a
// malformed (torn or foreign) record and yields ErrMalformedRecord, never
// a panic. Without a projection the record is returned unchanged.
func (p *Plan) Project(r scenario.PointResult) (scenario.PointResult, error) {
	if p.stratCol == nil {
		return r, nil
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

// maxCachedPlans bounds the process-wide plan memo; eviction is FIFO —
// the dashboard workload re-issues a small stable set of queries, so
// anything fancier buys nothing.
const maxCachedPlans = 256

// planCache is the process-wide plan memo.
type planCache struct {
	mu    sync.Mutex
	plans map[string]*Plan
	order []string
	hits  atomic.Int64
	miss  atomic.Int64
}

var cache = planCache{plans: make(map[string]*Plan)}

// CacheStats reports the plan memo's hit/miss counters and current size.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Size   int   `json:"size"`
}

// PlanCacheStats snapshots the process-wide plan memo counters.
func PlanCacheStats() CacheStats {
	cache.mu.Lock()
	size := len(cache.plans)
	cache.mu.Unlock()
	return CacheStats{Hits: cache.hits.Load(), Misses: cache.miss.Load(), Size: size}
}

// CompileCached is Compile behind the process-wide memo: plans are keyed
// by (spec digest, normalized query), so repeated dashboard-style queries
// over the same campaign reuse one compilation. Expansions of the same
// spec are deterministic and interchangeable, so a cached plan compiled
// against an earlier expansion of the same digest answers identically.
// Failed compilations are not cached — they are cheap and carry errors.
func CompileCached(e *scenario.Expansion, q Query) (*Plan, error) {
	key := scenario.SpecDigest(e.Spec) + "\x00" + q.Key()
	cache.mu.Lock()
	if p, ok := cache.plans[key]; ok {
		cache.mu.Unlock()
		cache.hits.Add(1)
		return p, nil
	}
	cache.mu.Unlock()
	p, err := Compile(e, q)
	if err != nil {
		cache.miss.Add(1)
		return nil, err
	}
	cache.mu.Lock()
	if _, ok := cache.plans[key]; !ok {
		if len(cache.order) >= maxCachedPlans {
			delete(cache.plans, cache.order[0])
			cache.order = cache.order[1:]
		}
		cache.plans[key] = p
		cache.order = append(cache.order, key)
	}
	cache.mu.Unlock()
	cache.miss.Add(1)
	return p, nil
}
