package cache

// Core behavior of the content-addressed cache: publish/lookup round
// trips, persistence across handles, incremental Refresh visibility
// between handles sharing a directory, seal sidecars, and survival of an
// abandoned (SIGKILL-shaped) writer. The adversarial battery lives in
// tamper_test.go, the cross-campaign differential in differential_test.go
// and the key-determinism property suite in key_test.go.

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ptgsched/internal/scenario"
)

// smokeSpec is the 8-point strassen campaign the store tests use: small
// enough to sweep in milliseconds, rich enough to exercise two platforms.
const smokeSpec = `{
	"name": "smoke",
	"seed": 9,
	"reps": 2,
	"nptgs": [2, 3],
	"platforms": ["lille", "rennes"],
	"families": [{"family": "strassen"}]
}`

func expand(t *testing.T, specJSON string) *scenario.Expansion {
	t.Helper()
	spec, err := scenario.ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	e, err := scenario.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func open(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fill sweeps the whole expansion through the cache and returns the
// results.
func fill(t *testing.T, c *Cache, e *scenario.Expansion, workers int) []scenario.PointResult {
	t.Helper()
	return run(t, e, scenario.SweepOptions{Workers: workers, Memo: c.Bind(e)})
}

// run materializes the whole expansion in point order.
func run(t *testing.T, e *scenario.Expansion, o scenario.SweepOptions) []scenario.PointResult {
	t.Helper()
	res, err := e.Run(e.All(), o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// segments lists the cache's segment files (not heads), sorted.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range ents {
		n := de.Name()
		if strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix) {
			out = append(out, filepath.Join(dir, n))
		}
	}
	return out
}

// oneSegment expects exactly one segment file.
func oneSegment(t *testing.T, dir string) string {
	t.Helper()
	segs := segments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("expected 1 segment, found %v", segs)
	}
	return segs[0]
}

func TestPublishLookupRoundTrip(t *testing.T) {
	e := expand(t, smokeSpec)
	dir := t.TempDir()
	c := open(t, dir)

	want := run(t, e, scenario.SweepOptions{Workers: 1})
	got := fill(t, c, e, 1)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cold cached sweep differs from plain run")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != uint64(e.NumPoints()) {
		t.Fatalf("cold sweep: hits=%d misses=%d, want 0/%d", st.Hits, st.Misses, e.NumPoints())
	}

	// Second sweep through the same handle: all hits, identical results.
	got = fill(t, c, e, 4)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("warm cached sweep differs from plain run")
	}
	st = c.Stats()
	if st.Hits != uint64(e.NumPoints()) {
		t.Fatalf("warm sweep: hits=%d, want %d", st.Hits, e.NumPoints())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPersistenceAcrossHandles(t *testing.T) {
	e := expand(t, smokeSpec)
	dir := t.TempDir()
	c := open(t, dir)
	want := fill(t, c, e, 2)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := open(t, dir)
	got := fill(t, c2, e, 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("reopened cache served different results")
	}
	st := c2.Stats()
	if st.Hits != uint64(e.NumPoints()) || st.Misses != 0 || st.VerifyFailures != 0 {
		t.Fatalf("reopen: hits=%d misses=%d fails=%d, want %d/0/0",
			st.Hits, st.Misses, st.VerifyFailures, e.NumPoints())
	}
	if st.Entries != e.NumPoints() {
		t.Fatalf("entries=%d, want %d", st.Entries, e.NumPoints())
	}
}

func TestRefreshSeesSiblingWriter(t *testing.T) {
	// Two handles share one directory, as two fleet workers would share
	// one filesystem: entries published through one become visible to the
	// other after Refresh, without reopening.
	e := expand(t, smokeSpec)
	dir := t.TempDir()
	a, b := open(t, dir), open(t, dir)

	fill(t, a, e, 1)
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}

	bb := b.Bind(e)
	if _, ok := bb.Lookup(e.PointAt(0)); ok {
		t.Fatal("b saw a's entry before Refresh")
	}
	if err := b.Refresh(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.NumPoints(); i++ {
		if _, ok := bb.Lookup(e.PointAt(i)); !ok {
			t.Fatalf("point %d not visible through sibling handle after Refresh", i)
		}
	}
	if st := b.Stats(); st.VerifyFailures != 0 {
		t.Fatalf("refresh of a clean sibling segment flagged %d failures", st.VerifyFailures)
	}
	if len(segments(t, dir)) != 1 {
		t.Fatalf("reader handle grew its own segment without publishing")
	}
}

func TestCloseSealsSegment(t *testing.T) {
	e := expand(t, smokeSpec)
	dir := t.TempDir()
	c := open(t, dir)
	fill(t, c, e, 1)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	seg := oneSegment(t, dir)
	if _, err := os.Stat(seg + headSuffix); err != nil {
		t.Fatalf("Close left no seal sidecar: %v", err)
	}
}

func TestAbandonedWriterSurvives(t *testing.T) {
	// A SIGKILL'd process neither Closes nor seals. Its segment must
	// still verify (the chain needs no seal) and serve every entry.
	e := expand(t, smokeSpec)
	dir := t.TempDir()
	c := open(t, dir)
	want := fill(t, c, e, 1)
	// Abandon c without Close: no seal is written.
	if segs := segments(t, dir); len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v", segs)
	}
	if _, err := os.Stat(oneSegment(t, dir) + headSuffix); err == nil {
		t.Fatal("seal exists without Close/Sync")
	}

	c2 := open(t, dir)
	got := fill(t, c2, e, 1)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("abandoned segment served different results")
	}
	st := c2.Stats()
	if st.Hits != uint64(e.NumPoints()) || st.VerifyFailures != 0 {
		t.Fatalf("abandoned segment: hits=%d fails=%d, want %d/0", st.Hits, st.VerifyFailures, e.NumPoints())
	}
}

func TestDuplicatePublishesCollapse(t *testing.T) {
	e := expand(t, smokeSpec)
	dir := t.TempDir()
	c := open(t, dir)
	b := c.Bind(e)
	r := e.RunPoint(e.PointAt(0))
	for i := 0; i < 5; i++ {
		b.Publish(e.PointAt(0), r)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := open(t, dir)
	if st := c2.Stats(); st.Entries != 1 {
		t.Fatalf("5 duplicate publishes left %d entries, want 1", st.Entries)
	}
}

func TestForeignDirectoryIsNotAdopted(t *testing.T) {
	// Opening a different directory never sees another cache's entries
	// (sanity for the content-address scoping).
	e := expand(t, smokeSpec)
	a := open(t, t.TempDir())
	fill(t, a, e, 1)
	b := open(t, t.TempDir())
	if st := b.Stats(); st.Entries != 0 {
		t.Fatalf("fresh dir has %d entries", st.Entries)
	}
}
