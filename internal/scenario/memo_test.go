package scenario

// The Memo seam, tested with an in-memory fake: hits bypass computation,
// misses are computed and offered back, a nil memo degenerates to the
// plain sweep, and every shape (Run, Each) funnels through the same
// lookup→compute→publish contract. The canonical disk
// implementation lives in internal/cache; this file keeps the seam itself
// under the scenario package's own race coverage.

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// mapMemo is a concurrency-safe in-memory Memo keyed by point index,
// counting its traffic.
type mapMemo struct {
	mu        sync.Mutex
	m         map[int]PointResult
	hits      atomic.Int64
	misses    atomic.Int64
	published atomic.Int64
}

func newMapMemo() *mapMemo { return &mapMemo{m: make(map[int]PointResult)} }

func (f *mapMemo) Lookup(p Point) (PointResult, bool) {
	f.mu.Lock()
	r, ok := f.m[p.Index]
	f.mu.Unlock()
	if ok {
		f.hits.Add(1)
		return r, true
	}
	f.misses.Add(1)
	return PointResult{}, false
}

func (f *mapMemo) Publish(p Point, r PointResult) {
	f.published.Add(1)
	f.mu.Lock()
	f.m[p.Index] = r
	f.mu.Unlock()
}

func memoExpansion(t *testing.T) *Expansion {
	t.Helper()
	s := mustParse(t, `{
		"name": "memo",
		"seed": 5,
		"reps": 2,
		"nptgs": [2, 3],
		"platforms": ["lille", "rennes"],
		"families": [{"family": "strassen"}]
	}`)
	return mustExpand(t, s)
}

func TestComputePointConsultsMemo(t *testing.T) {
	e := memoExpansion(t)
	m := newMapMemo()
	p := e.PointAt(0)

	r1 := e.ComputePointScratch(nil, p, m)
	if m.misses.Load() != 1 || m.published.Load() != 1 {
		t.Fatalf("first compute: misses=%d published=%d, want 1/1", m.misses.Load(), m.published.Load())
	}
	r2 := e.ComputePointScratch(nil, p, m)
	if m.hits.Load() != 1 || m.published.Load() != 1 {
		t.Fatalf("second compute: hits=%d published=%d, want 1/1", m.hits.Load(), m.published.Load())
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("memo hit differs from the computed result")
	}
	if !reflect.DeepEqual(r1, e.RunPoint(p)) {
		t.Fatal("memoized result differs from RunPoint")
	}
}

func TestComputePointNilMemoIsRunPoint(t *testing.T) {
	e := memoExpansion(t)
	p := e.PointAt(1)
	if !reflect.DeepEqual(e.ComputePointScratch(nil, p, nil), e.RunPoint(p)) {
		t.Fatal("nil memo does not degenerate to RunPoint")
	}
}

func TestRunMemoMatchesRunAtEveryHitSplit(t *testing.T) {
	e := memoExpansion(t)
	want := mustRun(t, e, e.All(), 1)

	// Pre-warm the memo with a prefix of the points; the sweep must fill
	// in the rest and return results identical to the plain run, at
	// several worker counts.
	for _, warm := range []int{0, e.NumPoints() / 2, e.NumPoints()} {
		for _, workers := range []int{1, 4} {
			m := newMapMemo()
			for i := 0; i < warm; i++ {
				m.Publish(e.PointAt(i), want[i])
			}
			got, err := e.Run(e.All(), SweepOptions{Workers: workers, Memo: m})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("warm=%d workers=%d: Run behind a memo differs from Run", warm, workers)
			}
			if h := m.hits.Load(); h != int64(warm) {
				t.Fatalf("warm=%d workers=%d: hits=%d", warm, workers, h)
			}
			// Pre-warm publishes plus one publish per miss.
			if p := m.published.Load(); p != int64(e.NumPoints()) {
				t.Fatalf("warm=%d: published=%d, want %d", warm, p, e.NumPoints())
			}
		}
	}
}

func TestRunEachMemoStreamsMemoHits(t *testing.T) {
	e := memoExpansion(t)
	want := mustRun(t, e, e.All(), 1)
	m := newMapMemo()
	for i, r := range want {
		m.Publish(e.PointAt(i), r)
	}
	var got []PointResult
	if err := e.Each(e.All(), SweepOptions{Workers: 1, Memo: m}, func(r PointResult) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Each over a fully warm memo differs from Run")
	}
	if m.hits.Load() != int64(e.NumPoints()) {
		t.Fatalf("hits=%d, want %d", m.hits.Load(), e.NumPoints())
	}
}
