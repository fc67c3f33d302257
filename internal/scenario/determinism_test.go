package scenario

// Determinism and contract suite for the one sweep loop and its shapes:
// the emitted result set, the aggregated campaign tables and Run's JSONL
// wire bytes must be bit-identical across every worker count × emit batch
// size combination, while Each promises the set, not the sequence; and
// Sweep's contract (skip, cancel, first error, panic isolation naming the
// global index) must hold at every fan-out. Run under -race in CI's
// multicore lane.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"ptgsched/internal/dag"
)

// determinismSpec covers two static cells (strassen and a fixed FFT size)
// across two sites: 2 cells × 2 NPTGs × 3 reps × 2 platforms = 24 points,
// enough for every worker/batch shape below to split unevenly.
const determinismSpec = `{
	"name": "determinism",
	"seed": 77,
	"reps": 3,
	"nptgs": [2, 3],
	"platforms": ["lille", "rennes"],
	"families": [{"family": "strassen"}, {"family": "fft", "k": [2]}]
}`

// jsonlBytes pins results to their wire form: byte equality here is the
// bit-identity test (PointResult round-trips float64 exactly).
func jsonlBytes(t *testing.T, results []PointResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mustRun is Run with only a worker count, for tests that just need the
// ordered reference results.
func mustRun(t *testing.T, e *Expansion, set IndexSet, workers int) []PointResult {
	t.Helper()
	res, err := e.Run(set, SweepOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunEachBatchWorkerAndBatchInvariance(t *testing.T) {
	e := mustExpand(t, mustParse(t, determinismSpec))
	set := e.All()

	baseline := mustRun(t, e, set, 1)
	wantJSONL := jsonlBytes(t, baseline)
	wantTables, err := e.Aggregate(baseline)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		for _, batch := range []int{1, 16, 256} {
			for _, isolated := range []bool{false, true} {
				name := fmt.Sprintf("workers=%d/batch=%d", workers, batch)
				if isolated {
					name += "/isolated"
				}
				o := SweepOptions{Workers: workers}
				t.Run(name, func(t *testing.T) {
					// The isolated variant runs a sibling sweep whose every
					// point panics alongside the healthy one: its panics
					// must come back as its own error and leave the healthy
					// sweep's results untouched.
					var badErr chan error
					if isolated {
						bad := mustExpand(t, mustParse(t, determinismSpec))
						for _, c := range bad.Cells {
							c.Config.Gen = func(*dag.Graph, *rand.Rand) { panic("degenerate scenario") }
						}
						badErr = make(chan error, 1)
						go func() {
							badErr <- bad.each(bad.All(), o, batch, func(PointResult) error { return nil })
						}()
					}
					var got []PointResult
					if err := e.each(set, o, batch, func(r PointResult) error {
						got = append(got, r)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					if isolated {
						if err := <-badErr; err == nil || !strings.Contains(err.Error(), "panicked") {
							t.Fatalf("sibling sweep err = %v, want a panic conversion", err)
						}
					}
					if len(got) != set.Len() {
						t.Fatalf("emitted %d results, want %d", len(got), set.Len())
					}
					// Each promises the multiset; sorting recovers the
					// sequence Run promises.
					sort.Slice(got, func(i, j int) bool { return got[i].Index < got[j].Index })
					if !bytes.Equal(jsonlBytes(t, got), wantJSONL) {
						t.Fatal("emitted results differ from the 1-worker reference")
					}
					tables, err := e.Aggregate(got)
					if err != nil {
						t.Fatal(err)
					}
					for i := range tables {
						if !reflect.DeepEqual(tables[i].Result.Points, wantTables[i].Result.Points) {
							t.Fatalf("cell %d tables differ from the 1-worker reference", i)
						}
					}
				})
			}
		}
	}
}

// TestRunEachBatchFirstErrorStops pins the contract the batching must not
// erode: after emit returns an error, no further result is emitted —
// buffered batches are discarded, not delivered — and the sweep returns
// exactly that error.
func TestRunEachBatchFirstErrorStops(t *testing.T) {
	e := mustExpand(t, mustParse(t, determinismSpec))
	set := e.All()
	sentinel := errors.New("sink full")

	for _, workers := range []int{1, 2, 8} {
		for _, batch := range []int{1, 16, 256} {
			emitted, after := 0, 0
			err := e.each(set, SweepOptions{Workers: workers}, batch, func(PointResult) error {
				if emitted == 5 {
					emitted++
					return sentinel
				}
				if emitted > 5 {
					after++
				}
				emitted++
				return nil
			})
			if !errors.Is(err, sentinel) {
				t.Fatalf("workers=%d batch=%d: err = %v, want the emit error", workers, batch, err)
			}
			if after != 0 {
				t.Fatalf("workers=%d batch=%d: %d results emitted after the error", workers, batch, after)
			}
		}
	}
}

// TestRunEachIsolatedBatchPanicIsolation: a panicking point must surface
// as an error from the sweep (not unwind a worker goroutine), at
// every worker count and batch size, and name the point's global index —
// checked on a strided set, where set position and global index differ.
func TestRunEachIsolatedBatchPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, batch := range []int{1, 16, 256} {
			e := mustExpand(t, mustParse(t, determinismSpec))
			// Every point of cell 0 panics inside its generator; cell 1
			// stays healthy, so workers cross the failure mid-sweep.
			e.Cells[0].Config.Gen = func(*dag.Graph, *rand.Rand) {
				panic("degenerate scenario")
			}
			err := e.each(e.All(), SweepOptions{Workers: workers}, batch, func(PointResult) error { return nil })
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("workers=%d batch=%d: err = %v, want a panic conversion", workers, batch, err)
			}
		}

		// Shard(1,3) holds global index 4 at position 1; skipping every
		// other cell-0 point leaves it the only one that panics.
		e := mustExpand(t, mustParse(t, determinismSpec))
		e.Cells[0].Config.Gen = func(*dag.Graph, *rand.Rand) { panic("degenerate scenario") }
		set, err := e.Shard(1, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !set.Contains(4) || e.CellOf(4) != 0 {
			t.Fatal("test premise: point 4 is a cell-0 point of shard 1/3")
		}
		err = e.Sweep(set, SweepOptions{
			Workers: workers,
			Skip:    func(i int) bool { return e.CellOf(i) == 0 && i != 4 },
		}, func(int, PointResult) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "point 4 panicked") {
			t.Fatalf("workers=%d: err = %v, want the panic to name global point 4", workers, err)
		}
	}
}

// TestSweepSkipsWithoutLookupOrVisit: a skipped point is neither looked up
// in the memo, computed, nor visited.
func TestSweepSkipsWithoutLookupOrVisit(t *testing.T) {
	e := mustExpand(t, mustParse(t, determinismSpec))
	skip := func(i int) bool { return i%3 == 0 }
	for _, workers := range []int{1, 2, 8} {
		m := newMapMemo()
		var visited atomic.Int64
		if err := e.Sweep(e.All(), SweepOptions{Workers: workers, Memo: m, Skip: skip},
			func(_ int, r PointResult) error {
				if skip(r.Index) {
					t.Errorf("workers=%d: skipped point %d visited", workers, r.Index)
				}
				visited.Add(1)
				return nil
			}); err != nil {
			t.Fatal(err)
		}
		want := int64(e.NumPoints() - (e.NumPoints()+2)/3)
		if visited.Load() != want || m.misses.Load() != want || m.published.Load() != want {
			t.Fatalf("workers=%d: visited=%d lookups=%d published=%d, want %d each",
				workers, visited.Load(), m.misses.Load(), m.published.Load(), want)
		}
	}
}

// TestSweepCancelledContextStops: once the context is cancelled Sweep
// starts no further point and returns the context's error.
func TestSweepCancelledContextStops(t *testing.T) {
	e := mustExpand(t, mustParse(t, determinismSpec))
	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var visited atomic.Int64
		err := e.Sweep(e.All(), SweepOptions{Workers: workers, Context: ctx},
			func(int, PointResult) error {
				if visited.Add(1) == 3 {
					cancel()
				}
				return nil
			})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Points already running when the cancel landed may finish: at
		// most one per other slot.
		if v := visited.Load(); v < 3 || v > int64(3+workers-1) {
			t.Fatalf("workers=%d: %d points visited around a cancel at the 3rd", workers, v)
		}
	}
}

// TestSweepPoolVisitsEveryIndexOnce: the pool's shared cursor hands every
// index to exactly one call, with fewer points than slots, as many, and
// many more; every slot is in [0, Slots(n)) and never runs two calls at
// once. Under -race the cursor and the per-slot state are checked too.
func TestSweepPoolVisitsEveryIndexOnce(t *testing.T) {
	const workers = 4
	o := SweepOptions{Workers: workers}
	for _, n := range []int{0, 1, workers - 1, workers, 1000} {
		slots := o.Slots(n)
		visits := make([]atomic.Int32, n)
		busy := make([]atomic.Bool, slots)
		perSlot := make([]int, slots) // written by its slot only
		o.forEachSlot(n, func(slot, j int) {
			if slot < 0 || slot >= slots {
				t.Errorf("n=%d: slot %d outside [0, %d)", n, slot, slots)
				return
			}
			if !busy[slot].CompareAndSwap(false, true) {
				t.Errorf("n=%d: slot %d runs two calls at once", n, slot)
			}
			perSlot[slot]++
			visits[j].Add(1)
			busy[slot].Store(false)
		})
		total := 0
		for _, c := range perSlot {
			total += c
		}
		if total != n {
			t.Errorf("n=%d: %d calls", n, total)
		}
		for j := range visits {
			if v := visits[j].Load(); v != 1 {
				t.Errorf("n=%d: index %d visited %d times", n, j, v)
			}
		}
	}
}

// TestSweepFirstVisitErrorIsReturned: the first visit error stops the
// sweep and is the one returned, even when later visits fail differently.
func TestSweepFirstVisitErrorIsReturned(t *testing.T) {
	e := mustExpand(t, mustParse(t, determinismSpec))
	first := errors.New("first")
	for _, workers := range []int{1, 2, 8} {
		var calls atomic.Int64
		err := e.Sweep(e.All(), SweepOptions{Workers: workers}, func(int, PointResult) error {
			if calls.Add(1) == 1 {
				return first
			}
			return errors.New("later")
		})
		if !errors.Is(err, first) {
			t.Fatalf("workers=%d: err = %v, want the first visit error", workers, err)
		}
		if c := calls.Load(); c > int64(workers) {
			t.Fatalf("workers=%d: %d visits after the sweep was told to stop", workers, c)
		}
	}
}

// TestRunMemoWorkerInvariance: Run, the shape that promises order, is
// byte-identical as JSONL at every worker count, over the full set and
// over a strided one.
func TestRunMemoWorkerInvariance(t *testing.T) {
	e := mustExpand(t, mustParse(t, determinismSpec))
	set := e.All()
	shard, err := e.Shard(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []IndexSet{set, shard} {
		want := jsonlBytes(t, mustRun(t, e, set, 1))
		for _, workers := range []int{2, 8} {
			if got := jsonlBytes(t, mustRun(t, e, set, workers)); !bytes.Equal(got, want) {
				t.Fatalf("Run with %d workers differs from 1-worker reference", workers)
			}
		}
	}
}
