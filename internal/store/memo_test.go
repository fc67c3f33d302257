package store

// Store ↔ memo integration: a Sweep with a memo attached serves warm
// points without computing them, and a completed store republishes its
// results into a memo (the store-as-cache-source direction used by
// `ptgbench -resume -cache`).

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"ptgsched/internal/scenario"
)

// countingMemo is an in-memory scenario.Memo keyed by point index.
type countingMemo struct {
	mu        sync.Mutex
	m         map[int]scenario.PointResult
	hits      int
	published int
}

func newCountingMemo() *countingMemo {
	return &countingMemo{m: make(map[int]scenario.PointResult)}
}

func (f *countingMemo) Lookup(p scenario.Point) (scenario.PointResult, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.m[p.Index]
	if ok {
		f.hits++
	}
	return r, ok
}

func (f *countingMemo) Publish(p scenario.Point, r scenario.PointResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.m[p.Index] = r
	f.published++
}

func TestSweepConsultsMemo(t *testing.T) {
	e := expand(t, smokeSpec)
	want := runAll(t, e)

	m := newCountingMemo()
	for i, r := range want {
		m.Publish(e.PointAt(i), r)
	}

	s, err := Create(filepath.Join(t.TempDir(), "store"), e, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.UseMemo(m)
	if ran, skipped, err := s.Sweep(e.All(), 1); err != nil || ran != 8 || skipped != 0 {
		t.Fatalf("Sweep = (%d, %d, %v)", ran, skipped, err)
	}
	m.mu.Lock()
	hits := m.hits
	m.mu.Unlock()
	if hits != e.NumPoints() {
		t.Fatalf("memo hits=%d, want %d (every sweep point served warm)", hits, e.NumPoints())
	}
	got := sortedResults(t, s)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("memo-fed store holds results differing from a plain run")
	}
}

func TestPublishToFeedsMemoFromCompletedStore(t *testing.T) {
	e := expand(t, smokeSpec)
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Create(dir, e, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Sweep(e.All(), 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	m := newCountingMemo()
	n, err := s2.PublishTo(m)
	if err != nil {
		t.Fatal(err)
	}
	if n != e.NumPoints() {
		t.Fatalf("PublishTo republished %d points, want %d", n, e.NumPoints())
	}
	// The memo now answers every point with the store's value.
	for i := 0; i < e.NumPoints(); i++ {
		if _, ok := m.Lookup(e.PointAt(i)); !ok {
			t.Fatalf("point %d missing from memo after PublishTo", i)
		}
	}
}
