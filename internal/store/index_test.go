package store

// Index coverage: the in-memory index built by OpenRead's recovery scan,
// compatibility with the .idx sidecars older builds wrote next to each
// segment (ignored, whatever their state), and the query-equivalence
// property suite (indexed Query ≡ naive full scan, byte-identically, for
// seeded random specs and predicates).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"ptgsched/internal/query"
	"ptgsched/internal/scenario"
)

// twoFamilySpec has 288 points across strassen and fft cells, so family
// and strategy predicates have both matching and non-matching cells.
const twoFamilySpec = `{
	"name": "index-test",
	"seed": 13,
	"reps": 4,
	"nptgs": [2, 4],
	"platforms": ["lille", "rennes", "nancy"],
	"families": [
		{"family": "strassen"},
		{"family": "fft", "k": [2, 3]},
		{"family": "random", "tasks": [20], "widths": [0.5], "regularities": [0.5], "densities": [0.5], "jumps": [1]}
	]
}`

// synth fabricates a deterministic full-width result for point idx —
// store tests exercise durability and indexing, not the scheduler, so
// results need not come from real runs.
func synth(e *scenario.Expansion, idx int) scenario.PointResult {
	p := e.PointAt(idx)
	ns := len(e.Cells[p.Cell].Config.Strategies)
	r := scenario.PointResult{
		Index: idx, Cell: p.Cell, Name: p.Name,
		Unfairness: make([]float64, ns),
		Makespan:   make([]float64, ns),
		Rel:        make([]float64, ns),
	}
	for s := 0; s < ns; s++ {
		r.Unfairness[s] = float64(idx%97)/97 + float64(s)*0.01
		r.Makespan[s] = 1000 + float64(idx%1013) + float64(s)
		r.Rel[s] = 1 + float64(s)*0.1
	}
	return r
}

// fillStore creates a store with the given shard count and appends every
// point's synthetic result in the given order (nil = index order).
func fillStore(t *testing.T, dir string, e *scenario.Expansion, shards int, order []int) *Store {
	t.Helper()
	s, err := Create(dir, e, shards)
	if err != nil {
		t.Fatal(err)
	}
	if order == nil {
		order = make([]int, e.NumPoints())
		for i := range order {
			order[i] = i
		}
	}
	for _, i := range order {
		if err := s.Append(synth(e, i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	return s
}

// collect runs one query path and returns the emitted records as
// marshalled JSONL — the byte-exact form the equivalence suite compares.
func collect(t *testing.T, st QueryStats, err error, got *bytes.Buffer) (QueryStats, string) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return st, got.String()
}

func runQuery(t *testing.T, s *Store, p *query.Plan, full bool) (QueryStats, string) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	fn := func(r scenario.PointResult) error { return enc.Encode(r) }
	if full {
		st, err := s.QueryFullScan(p, fn)
		return collect(t, st, err, &buf)
	}
	st, err := s.Query(p, fn)
	return collect(t, st, err, &buf)
}

func compile(t *testing.T, e *scenario.Expansion, q query.Query) *query.Plan {
	t.Helper()
	p, err := query.Compile(e, q)
	if err != nil {
		t.Fatalf("Compile(%s): %v", q, err)
	}
	return p
}

// assertNoSidecars fails if anything wrote an .idx file into dir.
func assertNoSidecars(t *testing.T, dir string) {
	t.Helper()
	idx, err := filepath.Glob(filepath.Join(dir, "*.idx"))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) > 0 {
		t.Fatalf("the store wrote index files: %v", idx)
	}
}

func TestSidecarRoundTripAndOpenReadFastPath(t *testing.T) {
	e := expand(t, twoFamilySpec)
	dir := filepath.Join(t.TempDir(), "store")
	s := fillStore(t, dir, e, 3, nil)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoSidecars(t, dir)

	r, err := OpenRead(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, seg := range r.segs {
		if len(seg.idx.runs) == 0 || !sort.SliceIsSorted(seg.idx.runs, func(i, j int) bool { return seg.idx.runs[i].off < seg.idx.runs[j].off }) {
			t.Fatalf("segment index empty or out of order: %+v", seg.idx.runs)
		}
	}
	for i, seg := range r.segs {
		if !reflect.DeepEqual(seg.idx.runs, s.segs[i].idx.runs) {
			t.Fatalf("segment %d: OpenRead's index differs from the one the writer built by appending", i)
		}
	}
	if err := r.Append(synth(e, 0)); err != ErrReadOnly {
		t.Fatalf("Append on read-only handle: %v, want ErrReadOnly", err)
	}
	if _, _, err := r.Sweep(e.All(), 1); err != ErrReadOnly {
		t.Fatalf("Sweep on read-only handle: %v, want ErrReadOnly", err)
	}

	// The index must serve the same records a full scan does.
	p := compile(t, e, query.Query{Family: "fft", Strategy: "PS-work", To: query.NoLimit})
	ist, indexed := runQuery(t, r, p, false)
	fst, scanned := runQuery(t, r, p, true)
	if indexed != scanned {
		t.Fatal("indexed query differs from full scan after OpenRead")
	}
	if ist.Emitted == 0 || ist.Emitted != fst.Emitted {
		t.Fatalf("emitted %d indexed vs %d scanned", ist.Emitted, fst.Emitted)
	}
	if ist.BytesRead >= fst.BytesRead {
		t.Fatalf("pushdown read %d bytes, full scan %d — no pruning", ist.BytesRead, fst.BytesRead)
	}
	if ist.LinesDecoded >= fst.LinesDecoded {
		t.Fatalf("pushdown decoded %d lines, full scan %d — no pruning", ist.LinesDecoded, fst.LinesDecoded)
	}
	assertNoSidecars(t, dir)
}

func TestOpenReadWithoutSidecarsRebuildsByScan(t *testing.T) {
	e := expand(t, twoFamilySpec)
	dir := filepath.Join(t.TempDir(), "store")
	s := fillStore(t, dir, e, 2, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRead(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	p := compile(t, e, query.Query{Family: "strassen", To: query.NoLimit})
	_, indexed := runQuery(t, r, p, false)
	_, scanned := runQuery(t, r, p, true)
	if indexed != scanned || indexed == "" {
		t.Fatal("the scanned index serves different records than full scan")
	}
	assertNoSidecars(t, dir)
}

// legacySidecar encodes runs in the .idx sidecar format older builds
// wrote next to each segment: one {"off","len","n","lo","hi"} entry per
// line.
func legacySidecar(runs []run) []byte {
	var b []byte
	for _, r := range runs {
		b = fmt.Appendf(b, `{"off":%d,"len":%d,"n":%d,"lo":%d,"hi":%d}`+"\n", r.off, r.len, r.n, r.lo, r.hi)
	}
	return b
}

// TestSidecarCrashInjection plants .idx sidecars as older builds left
// them — well-formed, and in every damaged state a crash or a bug could
// leave: stale (records landed, entries did not), a torn final entry,
// garbage mid-file, coverage past a torn segment tail, an entry lying
// about its index span. This build ignores them: every Query,
// QueryFullScan and Open result must equal the result with no sidecar
// present, and the planted bytes must stay as they were.
func TestSidecarCrashInjection(t *testing.T) {
	e := expand(t, twoFamilySpec)
	n := e.NumPoints()
	queries := []query.Query{
		{To: query.NoLimit},
		{Family: "fft", To: query.NoLimit},
		{Family: "strassen", Strategy: "ES", From: n / 4, To: 3 * n / 4},
	}

	// results renders everything the store answers: both query paths for
	// every predicate, and the writer's recovered progress.
	results := func(t *testing.T, dir string) string {
		t.Helper()
		r, err := OpenRead(dir, e)
		if err != nil {
			t.Fatalf("OpenRead: %v", err)
		}
		defer r.Close()
		var out bytes.Buffer
		for _, q := range queries {
			p := compile(t, e, q)
			ist, indexed := runQuery(t, r, p, false)
			fst, scanned := runQuery(t, r, p, true)
			fmt.Fprintf(&out, "%s\n%+v\n%s%+v\n%s", q, ist, indexed, fst, scanned)
		}
		w, err := Open(dir, e)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer w.Close()
		fmt.Fprintf(&out, "%+v\n", w.Progress())
		return out.String()
	}

	for _, tc := range []struct {
		name string
		// sidecar returns the bytes to plant next to a segment whose
		// index is runs.
		sidecar func(runs []run) []byte
		// tear chops this many bytes off segment 0 first.
		tear int64
	}{
		{"well-formed", legacySidecar, 0},
		{"stale", func(runs []run) []byte { return legacySidecar(runs[:1]) }, 0},
		{"torn-entry", func(runs []run) []byte {
			good := legacySidecar(runs)
			return good[:len(good)-7]
		}, 0},
		{"corrupt-midfile", func(runs []run) []byte {
			bad := legacySidecar(runs)
			bad[0] = '{' + 1 // first entry no longer parses; rest follows
			return bad
		}, 0},
		{"sidecar-past-segment", legacySidecar, 30},
		{"lying-entry", func(runs []run) []byte {
			lie := append([]run(nil), runs...)
			lie[0].lo++ // now congruent to the wrong shard
			return legacySidecar(lie)
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			s := fillStore(t, dir, e, 2, nil)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.tear > 0 {
				truncateTail(t, segmentPath(dir, 0), tc.tear)
			}
			want := results(t, dir)

			planted := make([][]byte, len(s.segs))
			for i, seg := range s.segs {
				planted[i] = tc.sidecar(seg.idx.runs)
				if err := os.WriteFile(segmentPath(dir, i)+".idx", planted[i], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if got := results(t, dir); got != want {
				t.Fatalf("with a %s sidecar the store answers\n%s\nwithout one\n%s", tc.name, got, want)
			}
			for i := range s.segs {
				if b, err := os.ReadFile(segmentPath(dir, i) + ".idx"); err != nil || !bytes.Equal(b, planted[i]) {
					t.Fatalf("sidecar %d changed (%v)", i, err)
				}
			}
		})
	}
}

// TestQueryEquivalenceProperty is the seeded-random differential suite:
// random shard counts, append orders (including shuffled, worst-case for
// run/cell alignment) and predicates — the indexed path must match the
// naive full scan byte-for-byte every time.
func TestQueryEquivalenceProperty(t *testing.T) {
	e := expand(t, twoFamilySpec)
	n := e.NumPoints()
	labels := []string{"", "S", "ES", "PS-work", "PS-width", "WPS-cp"}
	families := []string{"", "strassen", "fft", "random"}
	rng := rand.New(rand.NewSource(20260808))

	for trial := 0; trial < 6; trial++ {
		shards := 1 + rng.Intn(4)
		order := rng.Perm(n)
		if trial%2 == 0 {
			order = nil // index order: the cell-aligned fast case
		}
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("store-%d", trial))
		s := fillStore(t, dir, e, shards, order)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenRead(dir, e)
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 8; qi++ {
			q := query.Query{
				Family:   families[rng.Intn(len(families))],
				Strategy: labels[rng.Intn(len(labels))],
			}
			if rng.Intn(2) == 0 {
				q.From = rng.Intn(n)
				q.To = q.From + rng.Intn(n-q.From+1)
			} else {
				q.To = query.NoLimit
			}
			p, err := query.Compile(e, q)
			if err != nil {
				// Predicate invalid for this campaign (e.g. PS-width on
				// a strassen-only selection is fine, but some label may
				// not exist); both paths must agree it is invalid, which
				// Compile already guarantees — skip.
				continue
			}
			ist, indexed := runQuery(t, r, p, false)
			fst, scanned := runQuery(t, r, p, true)
			if indexed != scanned {
				t.Fatalf("trial %d shards=%d q=%s: indexed output differs from full scan", trial, shards, q)
			}
			if ist.Emitted != fst.Emitted || ist.Emitted != int64(p.NumSelected()) {
				t.Fatalf("trial %d q=%s: emitted %d/%d, plan selects %d", trial, q, ist.Emitted, fst.Emitted, p.NumSelected())
			}
			if ist.BytesRead > fst.BytesRead {
				t.Fatalf("trial %d q=%s: indexed read more bytes (%d) than the full scan (%d)", trial, q, ist.BytesRead, fst.BytesRead)
			}
		}
		r.Close()
	}
}

// TestAggregateWhereMatchesManualReduction: the predicate-taking
// aggregation equals feeding the full-scan selection through the same
// group reduction, and reads fewer bytes doing it.
func TestAggregateWhereMatchesManualReduction(t *testing.T) {
	e := expand(t, twoFamilySpec)
	dir := filepath.Join(t.TempDir(), "store")
	s := fillStore(t, dir, e, 2, nil)
	defer s.Close()

	p := compile(t, e, query.Query{Family: "fft", Strategy: "ES", To: query.NoLimit})
	rows, st, err := s.AggregateWhere(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	want := query.NewGroupAggregator(p)
	if _, err := s.QueryFullScan(p, want.Add); err != nil {
		t.Fatal(err)
	}
	wantRows := want.Rows()
	if len(rows) != len(wantRows) {
		t.Fatalf("%d rows indexed, %d full-scan", len(rows), len(wantRows))
	}
	for i := range rows {
		if rows[i] != wantRows[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, rows[i], wantRows[i])
		}
	}
	if st.BytesRead >= st.BytesTotal {
		t.Fatalf("filtered aggregation read %d of %d bytes — no pruning", st.BytesRead, st.BytesTotal)
	}
	// Nil plan aggregates everything.
	all, _, err := s.AggregateWhere(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) <= len(rows) {
		t.Fatalf("match-all rows %d, filtered rows %d", len(all), len(rows))
	}
}

// compactSpec has two cells of 33,000 points: appended alternating cells,
// every record opens a run of its own, so the 65,537th record compacts.
const compactSpec = `{
	"name": "compact-test",
	"seed": 3,
	"reps": 33000,
	"nptgs": [2],
	"platforms": ["lille"],
	"families": [{"family": "strassen"}, {"family": "fft", "k": [2]}]
}`

// TestCompactionKeepsQueriesExact: records appended through Store.Append
// that switch cells every record — possible through Append, never
// through a sweep — grow one run per record until the index compacts at
// maxRunsPerSegment. After each compaction, and after the last append,
// the run count is within the bound and the pushdown Query equals
// QueryFullScan byte for byte for every family and every strategy
// predicate over the merged runs (one strategy predicate under -short).
func TestCompactionKeepsQueriesExact(t *testing.T) {
	e := expand(t, compactSpec)
	if len(e.Cells) != 2 || e.NumPoints() <= maxRunsPerSegment {
		t.Fatalf("%d cells, %d points: the test needs two cells past %d records", len(e.Cells), e.NumPoints(), maxRunsPerSegment)
	}
	preds := []query.Query{{}, {Family: "strassen"}, {Family: "fft"}}
	labels := e.Cells[0].Config.Labels
	if testing.Short() {
		labels = labels[:1] // the race lane: one projection, not every one
	}
	for _, l := range labels {
		preds = append(preds, query.Query{Strategy: l})
	}
	s, err := Create(t.TempDir(), e, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ix := &s.segs[0].idx
	check := func(when string) {
		t.Helper()
		if len(ix.runs) > maxRunsPerSegment {
			t.Fatalf("%s: %d runs, bound %d", when, len(ix.runs), maxRunsPerSegment)
		}
		for _, q := range preds {
			q.To = query.NoLimit
			p := compile(t, e, q)
			var indexed, scanned []scenario.PointResult
			if _, err := s.Query(p, func(r scenario.PointResult) error { indexed = append(indexed, r); return nil }); err != nil {
				t.Fatal(err)
			}
			if _, err := s.QueryFullScan(p, func(r scenario.PointResult) error { scanned = append(scanned, r); return nil }); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(indexed, scanned) {
				t.Fatalf("%s, q=%s: the indexed query emits %d records, the full scan %d, or they differ",
					when, q, len(indexed), len(scanned))
			}
		}
	}
	lo1, _ := e.CellRange(1)
	compactions := 0
	for i := 0; i < lo1; i++ {
		for _, idx := range []int{i, lo1 + i} {
			before := len(ix.runs)
			if err := s.Append(synth(e, idx)); err != nil {
				t.Fatalf("Append(%d): %v", idx, err)
			}
			if len(ix.runs) < before {
				compactions++
				check(fmt.Sprintf("compaction %d (record %d)", compactions, 2*i+idx/lo1+1))
			}
		}
	}
	if compactions == 0 {
		t.Fatalf("%d alternating records never compacted the index", 2*lo1)
	}
	check("after the last append")
}
