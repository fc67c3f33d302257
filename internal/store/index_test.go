package store

// Index sidecar coverage: sidecar roundtrip through close/reopen, the
// OpenRead fast path, crash injection against both the segment and its
// sidecar (stale, torn, corrupt — every case must fall back to
// rebuild-from-segments, never error or serve wrong ranges), and the
// query-equivalence property suite (indexed Query ≡ naive full scan,
// byte-identically, for seeded random specs and predicates).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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

func TestSidecarRoundTripAndOpenReadFastPath(t *testing.T) {
	e := expand(t, twoFamilySpec)
	dir := filepath.Join(t.TempDir(), "store")
	s := fillStore(t, dir, e, 3, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(sidecarPath(dir, i)); err != nil {
			t.Fatalf("sidecar %d missing after close: %v", i, err)
		}
	}

	r, err := OpenRead(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.RebuiltSegments(); n != 0 {
		t.Fatalf("clean close, yet OpenRead rebuilt %d segments", n)
	}
	for _, seg := range r.segs {
		if len(seg.idx.runs) == 0 || !sort.SliceIsSorted(seg.idx.runs, func(i, j int) bool { return seg.idx.runs[i].off < seg.idx.runs[j].off }) {
			t.Fatalf("segment index empty or out of order: %+v", seg.idx.runs)
		}
	}
	if err := r.Append(synth(e, 0)); err != ErrReadOnly {
		t.Fatalf("Append on read-only handle: %v, want ErrReadOnly", err)
	}
	if _, _, err := r.Sweep(e.All(), 1); err != ErrReadOnly {
		t.Fatalf("Sweep on read-only handle: %v, want ErrReadOnly", err)
	}

	// The fast path must serve the same records a full scan does.
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
}

func TestOpenReadWithoutSidecarsRebuildsByScan(t *testing.T) {
	e := expand(t, twoFamilySpec)
	dir := filepath.Join(t.TempDir(), "store")
	s := fillStore(t, dir, e, 2, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a store written before sidecars existed.
	for i := 0; i < 2; i++ {
		if err := os.Remove(sidecarPath(dir, i)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := OpenRead(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.RebuiltSegments(); n != 2 {
		t.Fatalf("RebuiltSegments = %d, want 2", n)
	}
	p := compile(t, e, query.Query{Family: "strassen", To: query.NoLimit})
	_, indexed := runQuery(t, r, p, false)
	_, scanned := runQuery(t, r, p, true)
	if indexed != scanned || indexed == "" {
		t.Fatal("rebuilt index serves different records than full scan")
	}
}

// TestSidecarCrashInjection tears the store down mid-write in every way a
// crash can — stale sidecar (records landed, entries did not), torn
// sidecar final line, corrupt sidecar mid-file, torn segment tail with a
// sidecar that still covers the dropped record — and checks both Open
// and OpenRead recover: fall back to scan where needed, never serve a
// wrong range, never error.
func TestSidecarCrashInjection(t *testing.T) {
	e := expand(t, twoFamilySpec)
	n := e.NumPoints()

	build := func(t *testing.T) string {
		dir := filepath.Join(t.TempDir(), "store")
		s := fillStore(t, dir, e, 2, nil)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	check := func(t *testing.T, dir string, wantRebuilt bool) {
		t.Helper()
		r, err := OpenRead(dir, e)
		if err != nil {
			t.Fatalf("OpenRead after injection: %v", err)
		}
		defer r.Close()
		if wantRebuilt && r.RebuiltSegments() == 0 {
			t.Fatal("expected at least one rebuilt segment")
		}
		for _, q := range []query.Query{
			{To: query.NoLimit},
			{Family: "fft", To: query.NoLimit},
			{Family: "strassen", Strategy: "ES", From: n / 4, To: 3 * n / 4},
		} {
			p := compile(t, e, q)
			_, indexed := runQuery(t, r, p, false)
			_, scanned := runQuery(t, r, p, true)
			if indexed != scanned {
				t.Fatalf("%s: indexed ≠ full scan after injection", q)
			}
		}
		// The writer path must also recover (it rescans regardless) and
		// heal the sidecar on its next append-capable open.
		w, err := Open(dir, e)
		if err != nil {
			t.Fatalf("Open after injection: %v", err)
		}
		defer w.Close()
		if got := w.Progress(); got.Completed == 0 {
			t.Fatal("writer recovered nothing")
		}
	}

	t.Run("stale", func(t *testing.T) {
		// A crash window between record write and entry write: the
		// sidecar legitimately lags. Emulate by chopping whole entries
		// off the sidecar (coverage < segment, tiling intact).
		dir := build(t)
		idx := sidecarPath(dir, 0)
		data, err := os.ReadFile(idx)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		if len(lines) < 2 {
			t.Skip("sidecar has a single entry; stale case needs two")
		}
		if err := os.WriteFile(idx, bytes.Join(lines[:1], nil), 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, dir, false) // a lagging sidecar is normal, not a rebuild
	})
	t.Run("torn-entry", func(t *testing.T) {
		dir := build(t)
		truncateTail(t, sidecarPath(dir, 0), 7) // mid-entry: torn final line
		check(t, dir, false)
	})
	t.Run("corrupt-midfile", func(t *testing.T) {
		dir := build(t)
		idx := sidecarPath(dir, 1)
		data, err := os.ReadFile(idx)
		if err != nil {
			t.Fatal(err)
		}
		data[0] = '{' + 1 // first entry no longer parses; rest follows
		if err := os.WriteFile(idx, data, 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, dir, true)
	})
	t.Run("sidecar-past-segment", func(t *testing.T) {
		// Segment torn back below sidecar coverage: entries point past
		// the file. Must rebuild, not serve ranges beyond EOF.
		dir := build(t)
		truncateTail(t, segmentPath(dir, 0), 30)
		check(t, dir, true)
	})
	t.Run("lying-entry", func(t *testing.T) {
		// An entry whose index span violates shard congruence fails
		// validation and sends the whole sidecar to the scan path.
		dir := build(t)
		idx := sidecarPath(dir, 0)
		data, err := os.ReadFile(idx)
		if err != nil {
			t.Fatal(err)
		}
		nl := bytes.IndexByte(data, '\n')
		var entry runEntry
		if err := json.Unmarshal(data[:nl], &entry); err != nil {
			t.Fatal(err)
		}
		entry.Lo++ // now congruent to the wrong shard
		fixed, err := json.Marshal(entry)
		if err != nil {
			t.Fatal(err)
		}
		out := append(append([]byte{}, fixed...), data[nl:]...)
		if err := os.WriteFile(idx, out, 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, dir, true)
	})
}

// TestWriterHealsSidecarOnAppend: after injection, a write-mode open plus
// one append must rewrite the sidecar so the next OpenRead is clean.
func TestWriterHealsSidecarOnAppend(t *testing.T) {
	e := expand(t, twoFamilySpec)
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Create(dir, e, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.NumPoints()-1; i++ {
		if err := s.Append(synth(e, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the sidecar wholesale.
	if err := os.WriteFile(sidecarPath(dir, 0), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(synth(e, e.NumPoints()-1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRead(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.RebuiltSegments(); n != 0 {
		t.Fatalf("sidecar not healed by append: %d segments rebuilt", n)
	}
	p := compile(t, e, query.Query{To: query.NoLimit})
	st, _ := runQuery(t, r, p, false)
	if st.Emitted != int64(e.NumPoints()) {
		t.Fatalf("healed store emitted %d of %d", st.Emitted, e.NumPoints())
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
