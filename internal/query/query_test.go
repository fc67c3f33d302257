package query

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ptgsched/internal/scenario"
)

// testSpec covers two families with distinct strategy label sets: the
// paper set drops PS-width/WPS-width for strassen, so those labels exist
// only in the fft cells — and a shared label like PS-work sits at a
// different column index in each family.
const testSpec = `{
  "name": "query-unit",
  "seed": 5,
  "reps": 3,
  "nptgs": [2, 4],
  "platforms": ["lille", "rennes"],
  "families": [
    {"family": "strassen"},
    {"family": "fft", "k": [2, 3]}
  ]
}`

func expand(t *testing.T) *scenario.Expansion {
	t.Helper()
	spec, err := scenario.ParseSpec([]byte(testSpec))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	e, err := scenario.Expand(spec)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	return e
}

// fullResult fabricates a deterministic full-width record for point i.
func fullResult(e *scenario.Expansion, i int) scenario.PointResult {
	pt := e.PointAt(i)
	ns := len(e.Cells[pt.Cell].Config.Labels)
	r := scenario.PointResult{
		Index: pt.Index, Cell: pt.Cell, Name: pt.Name,
		Unfairness: make([]float64, ns),
		Makespan:   make([]float64, ns),
		Rel:        make([]float64, ns),
	}
	for s := 0; s < ns; s++ {
		r.Unfairness[s] = float64(i) + float64(s)/10
		r.Makespan[s] = float64(i)*2 + float64(s)/10
		r.Rel[s] = float64(i)/2 + float64(s)/10
	}
	return r
}

// naive is the reference predicate: a full walk deciding each point by
// direct inspection of its cell.
func naive(e *scenario.Expansion, q Query, i int) bool {
	to := q.To
	if to < 0 || to > e.NumPoints() {
		to = e.NumPoints()
	}
	if i < q.From || i >= to {
		return false
	}
	c := e.Cells[e.CellOf(i)]
	if q.Family != "" && c.Family.String() != q.Family {
		return false
	}
	if q.Strategy != "" {
		found := false
		for _, l := range c.Config.Labels {
			if l == q.Strategy {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func TestPlanMatchesNaivePredicate(t *testing.T) {
	e := expand(t)
	queries := []Query{
		{To: NoLimit},
		{Family: "strassen", To: NoLimit},
		{Family: "fft", To: NoLimit},
		{Strategy: "PS-width", To: NoLimit},
		{Strategy: "PS-work", To: NoLimit},
		{Family: "fft", Strategy: "ES", To: NoLimit},
		{From: 5, To: 17},
		{From: 0, To: 0},
		{From: e.NumPoints() - 1, To: NoLimit},
		{Family: "strassen", From: 3, To: e.NumPoints() - 2},
	}
	for _, q := range queries {
		p, err := Compile(e, q)
		if err != nil {
			t.Fatalf("Compile(%s): %v", q, err)
		}
		want := 0
		for i := 0; i < e.NumPoints(); i++ {
			n := naive(e, q, i)
			if p.Matches(i) != n {
				t.Fatalf("%s: Matches(%d)=%v, naive says %v", q, i, p.Matches(i), n)
			}
			if n {
				want++
			}
		}
		if got := p.NumSelected(); got != want {
			t.Errorf("%s: NumSelected=%d, naive count %d", q, got, want)
		}
	}
}

func TestEachRangeCoversExactlyTheSelection(t *testing.T) {
	e := expand(t)
	for _, q := range []Query{
		{To: NoLimit},
		{Family: "fft", To: NoLimit},
		{Family: "strassen", From: 2, To: 20},
		{Strategy: "PS-width", From: 10, To: NoLimit},
		{From: 7, To: 7},
	} {
		p, err := Compile(e, q)
		if err != nil {
			t.Fatalf("Compile(%s): %v", q, err)
		}
		covered := make([]bool, e.NumPoints())
		prevHi := -1
		p.EachRange(func(lo, hi int) error {
			if lo >= hi {
				t.Fatalf("%s: empty range [%d,%d)", q, lo, hi)
			}
			if lo <= prevHi {
				t.Fatalf("%s: range [%d,%d) not strictly after previous end %d (unmerged or overlapping)", q, lo, hi, prevHi)
			}
			prevHi = hi
			for i := lo; i < hi; i++ {
				covered[i] = true
			}
			return nil
		})
		for i := range covered {
			if covered[i] != p.Matches(i) {
				t.Fatalf("%s: index %d covered=%v matches=%v", q, i, covered[i], p.Matches(i))
			}
		}
	}
}

func TestCompileRejectsBadQueries(t *testing.T) {
	e := expand(t)
	for _, tc := range []struct {
		q    Query
		want string
	}{
		{Query{Family: "nosuch", To: NoLimit}, "no cell of family"},
		{Query{Strategy: "NOPE", To: NoLimit}, "no strategy labeled"},
		{Query{Family: "strassen", Strategy: "PS-width", To: NoLimit}, "no strategy labeled"},
		{Query{From: -1, To: NoLimit}, "negative"},
		{Query{From: 3, To: 2}, "invalid"},
		{Query{From: e.NumPoints(), To: NoLimit}, "outside expansion"},
		{Query{From: e.NumPoints() + 5, To: NoLimit}, "outside expansion"},
	} {
		if _, err := Compile(e, tc.q); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Compile(%s): err=%v, want substring %q", tc.q, err, tc.want)
		}
	}
	// From == 0 is always legal, even on an empty range.
	if _, err := Compile(e, Query{From: 0, To: 0}); err != nil {
		t.Errorf("Compile([0,0)): %v", err)
	}
}

func TestProjectionColumnIsPerCell(t *testing.T) {
	e := expand(t)
	p, err := Compile(e, Query{Strategy: "PS-work", To: NoLimit})
	if err != nil {
		t.Fatal(err)
	}
	// PS-work sits at a different column in strassen (no width strategies)
	// than in fft; the plan must resolve the column per cell.
	cols := map[string]int{}
	for _, ci := range p.Cells() {
		cols[e.Cells[ci].Family.String()] = p.ProjectColumn(ci)
	}
	if cols["strassen"] == cols["fft"] {
		t.Fatalf("PS-work column identical across families (%v); expected per-cell resolution", cols)
	}
	for i := 0; i < e.NumPoints(); i++ {
		if !p.Matches(i) {
			continue
		}
		r := fullResult(e, i)
		k := p.ProjectColumn(r.Cell)
		proj, err := p.Project(r)
		if err != nil {
			t.Fatalf("Project(%d): %v", i, err)
		}
		if len(proj.Unfairness) != 1 || proj.Unfairness[0] != r.Unfairness[k] {
			t.Fatalf("Project(%d) picked %v, want column %d = %v", i, proj.Unfairness, k, r.Unfairness[k])
		}
	}
}

func TestProjectValidatesColumns(t *testing.T) {
	e := expand(t)
	p, err := Compile(e, Query{Strategy: "PS-work", To: NoLimit})
	if err != nil {
		t.Fatal(err)
	}
	good := fullResult(e, 0)
	if _, err := p.Project(good); err != nil {
		t.Fatalf("Project(good): %v", err)
	}
	// A record missing the projected column must classify, not panic.
	bad := good
	bad.Unfairness = bad.Unfairness[:1]
	if _, err := p.Project(bad); !errors.Is(err, ErrMalformedRecord) {
		t.Fatalf("Project(short record): err=%v, want ErrMalformedRecord", err)
	}
	// So must a record naming no cell of the campaign.
	for _, cell := range []int{-1, len(e.Cells)} {
		foreign := good
		foreign.Cell = cell
		if _, err := p.Project(foreign); !errors.Is(err, ErrMalformedRecord) {
			t.Fatalf("Project(cell %d): err=%v, want ErrMalformedRecord", cell, err)
		}
		if k := p.ProjectColumn(cell); k != -1 {
			t.Fatalf("ProjectColumn(%d) = %d, want -1", cell, k)
		}
	}
	// Without a projection the record passes through untouched.
	all, err := Compile(e, Query{To: NoLimit})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := all.Project(good); err != nil || len(out.Unfairness) != len(good.Unfairness) {
		t.Fatalf("Project without projection = %+v, %v", out, err)
	}
}

// CompileCached is kept as an alias of Compile: the same plan in every
// exported view, the same error for a query that cannot compile.
func TestCompileCachedIsCompile(t *testing.T) {
	e := expand(t)
	for _, q := range []Query{
		{To: NoLimit},
		{Family: "fft", Strategy: "PS-width", From: 1, To: 40},
		{Family: "strassen", To: NoLimit},
		{Strategy: "PS-work", From: 7, To: 7},
	} {
		want, err := Compile(e, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CompileCached(e, q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Query() != want.Query() || got.Expansion() != want.Expansion() ||
			got.From != want.From || got.To != want.To || got.NumSelected() != want.NumSelected() ||
			!slices.Equal(got.Cells(), want.Cells()) || !slices.Equal(ranges(got), ranges(want)) {
			t.Fatalf("%v: CompileCached's plan differs from Compile's", q)
		}
		for i := 0; i < e.NumPoints(); i++ {
			if got.Matches(i) != want.Matches(i) {
				t.Fatalf("%v: Matches(%d) = %v, Compile's plan says %v", q, i, got.Matches(i), want.Matches(i))
			}
		}
		for ci := range e.Cells {
			if got.ProjectColumn(ci) != want.ProjectColumn(ci) {
				t.Fatalf("%v: ProjectColumn(%d) = %d, Compile's plan says %d", q, ci, got.ProjectColumn(ci), want.ProjectColumn(ci))
			}
		}
	}
	bad := Query{Family: "nosuch", To: NoLimit}
	_, want := Compile(e, bad)
	_, got := CompileCached(e, bad)
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Fatalf("unknown family: CompileCached says %v, Compile says %v", got, want)
	}
}

// ranges lists a plan's EachRange runs as flat (lo, hi) pairs.
func ranges(p *Plan) []int {
	var out []int
	p.EachRange(func(lo, hi int) error { out = append(out, lo, hi); return nil })
	return out
}

// BenchmarkCompile compiles the two queries the store_warm workload runs,
// on its expansion (3 cells × 3 PTG counts × 4 sites × 150 reps = 5,400
// points): a plan is one pass over the cells whatever the point count.
func BenchmarkCompile(b *testing.B) {
	spec, err := scenario.ParseSpec([]byte(`{"name":"store_warm","seed":301,"reps":150,"nptgs":[2,4,6],` +
		`"families":[{"family":"strassen"},{"family":"fft","k":[2,3]}]}`))
	if err != nil {
		b.Fatal(err)
	}
	e, err := scenario.Expand(spec)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []Query{
		{Family: "strassen", Strategy: "WPS-work", To: NoLimit},
		{Family: "fft", Strategy: "ES", To: NoLimit},
	} {
		b.Run(q.Family+"/"+q.Strategy, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(e, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestGroupAggregatorPartialAndOrderInsensitive(t *testing.T) {
	e := expand(t)
	p, err := Compile(e, Query{Family: "strassen", Strategy: "PS-work", From: 1, To: e.NumPoints()})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int) scenario.PointResult {
		out, err := p.Project(fullResult(e, i))
		if err != nil {
			t.Fatalf("Project(%d): %v", i, err)
		}
		return out
	}
	var sel []int
	p.EachRange(func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			sel = append(sel, i)
		}
		return nil
	})
	fwd := NewGroupAggregator(p)
	for _, i := range sel {
		if err := fwd.Add(mk(i)); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
	}
	rev := NewGroupAggregator(p)
	for j := len(sel) - 1; j >= 0; j-- {
		if err := rev.Add(mk(sel[j])); err != nil {
			t.Fatalf("Add(%d) reversed: %v", sel[j], err)
		}
	}
	a, b := fwd.Rows(), rev.Rows()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("rows: %d forward, %d reversed", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs by arrival order:\n fwd %+v\n rev %+v", i, a[i], b[i])
		}
	}
	// From=1 cut the first group: its count must be short of a full group.
	if full := e.NumPoints() / (len(e.Cells) * len(e.Cells[0].Config.NPTGs)); a[0].Count >= full {
		t.Errorf("first row count %d, want partial group (< %d)", a[0].Count, full)
	}
	// Duplicates, out-of-plan records and short records are rejected.
	if err := fwd.Add(mk(sel[0])); err == nil {
		t.Error("duplicate Add: want error")
	}
	if err := fwd.Add(mk(sel[len(sel)-1])); err == nil {
		t.Error("duplicate Add (last point): want error")
	}
	outside := fullResult(e, 0) // index 0 is below From=1
	if err := fwd.Add(outside); err == nil {
		t.Error("Add outside plan: want error")
	}
}

// Every rejection keeps its verdict and its text, whichever check makes
// it: the plan's selection, the projection's column count, or the
// expansion's placement of the record (range, cell, duplicate).
func TestGroupAggregatorRejections(t *testing.T) {
	e := expand(t)
	p, err := Compile(e, Query{Family: "fft", From: 1, To: NoLimit})
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := e.CellRange(p.Cells()[0])
	agg := NewGroupAggregator(p)
	if err := agg.Add(fullResult(e, lo+1)); err != nil {
		t.Fatal(err)
	}
	with := func(i int, edit func(*scenario.PointResult)) scenario.PointResult {
		r := fullResult(e, i)
		edit(&r)
		return r
	}
	short := func(r *scenario.PointResult) { r.Rel = r.Rel[1:] }
	stale := func(r *scenario.PointResult) { r.Cell = 0 }
	for _, c := range []struct {
		r         scenario.PointResult
		want      string
		malformed bool
	}{
		{with(0, func(r *scenario.PointResult) { r.Index = -1 }), "query: result index -1 outside expansion", false},
		{with(0, func(r *scenario.PointResult) { r.Index = e.NumPoints() }),
			"query: result index " + strconv.Itoa(e.NumPoints()) + " outside expansion", false},
		{fullResult(e, 0), "query: result 0 outside the plan's selection (family=fft range=[1,end))", false},
		{with(0, stale), "query: result 0 outside the plan's selection (family=fft range=[1,end))", false},
		{with(lo, stale), "query: result " + strconv.Itoa(lo) + " is for cell 0, expansion says 1 (stale shard?)", false},
		{with(lo, func(r *scenario.PointResult) { stale(r); short(r) }),
			"query: result " + strconv.Itoa(lo) + " is for cell 0, expansion says 1 (stale shard?)", false},
		{with(lo, short), "query: malformed result record: point " + strconv.Itoa(lo) +
			" carries 8/8/7 strategy columns, group wants 8", true},
		{fullResult(e, lo+1), "query: duplicate result for point " + strconv.Itoa(lo+1), false},
	} {
		err := agg.Add(c.r)
		if err == nil || err.Error() != c.want || errors.Is(err, ErrMalformedRecord) != c.malformed {
			t.Errorf("Add(point %d cell %d): got %v, want %q (malformed %v)", c.r.Index, c.r.Cell, err, c.want, c.malformed)
		}
	}
	if rows := agg.Rows(); len(rows) != 8 || rows[0].Count != 1 {
		t.Errorf("rejected records reached the rows: %+v", rows)
	}
}

// A plan that selects one group of a many-group expansion allocates for
// that group only: the reduction's storage is per touched group.
func TestGroupAggregatorAllocatesPerTouchedGroup(t *testing.T) {
	spec, err := scenario.ParseSpec([]byte(`{"seed":1,"reps":4,"nptgs":[2,4,6,8,10],` +
		`"families":[{"family":"fft","k":[2,3,4,5,6,7,8]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	e, err := scenario.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	const group = 17 // cell 3, its third NPTGs value
	size := e.NumPoints() / (len(e.Cells) * 5)
	p, err := Compile(e, Query{Strategy: "ES", From: group * size, To: (group + 1) * size})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]scenario.PointResult, size)
	for j := range recs {
		if recs[j], err = p.Project(fullResult(e, group*size+j)); err != nil {
			t.Fatal(err)
		}
	}
	var rows []GroupRow
	allocs := testing.AllocsPerRun(20, func() {
		agg := NewGroupAggregator(p)
		for _, r := range recs {
			if err := agg.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		rows = agg.Rows()
	})
	if len(rows) != 1 || rows[0].Count != size {
		t.Fatalf("rows %+v, want one full group of %d", rows, size)
	}
	// The ceiling is what this took while query kept slot storage of its
	// own beside the scenario aggregator's.
	t.Logf("%.0f allocations for %d groups, %d records", allocs, len(e.Cells)*5, size)
	if allocs > 6 {
		t.Errorf("%.0f allocations, want at most 6", allocs)
	}
}
