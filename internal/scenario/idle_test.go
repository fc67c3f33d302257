package scenario

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// idleSpecs are small grids through both engines: static points, and online
// points under a failure and a cancel.
var idleSpecs = []string{
	`{"name":"parked-static","seed":5,"reps":2,"nptgs":[2,4],"platforms":["lille","rennes"],
		"families":[{"family":"random","tasks":[10,20],"widths":[0.5],"regularities":[0.8],"densities":[0.8],"jumps":[2]}]}`,
	`{"name":"parked-dynamic","seed":9,"reps":2,"nptgs":[3],"platforms":["lille","rennes"],
		"families":[{"family":"fft"}],
		"online":{"processes":["poisson"],"rates":[0.5]},
		"events":{"failures":[{"cluster":0,"at":20,"duration":30}],"cancels":[{"app":0,"at":10,"resubmit_after":15}],"policies":["restart","checkpoint"]}}`,
}

// drainIdle empties the idle set, so the next sweep starts cold.
func drainIdle() {
	idle.Lock()
	clear(idle.scratches)
	idle.scratches = idle.scratches[:0]
	idle.Unlock()
}

func scratchesBuilt() int {
	idle.Lock()
	defer idle.Unlock()
	return idle.built
}

// coldResults computes every point on a scratch of its own.
func coldResults(e *Expansion) []PointResult {
	out := make([]PointResult, e.NumPoints())
	for i := range out {
		out[i] = e.RunPoint(e.PointAt(i))
	}
	return out
}

// sweepResults runs one Each over the whole expansion and returns its
// records in point order.
func sweepResults(t *testing.T, e *Expansion, workers int) []PointResult {
	t.Helper()
	out := make([]PointResult, e.NumPoints())
	if err := e.Each(e.All(), SweepOptions{Workers: workers}, func(r PointResult) error {
		out[r.Index] = r
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameRecords(t *testing.T, what string, got, want []PointResult) {
	t.Helper()
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) || !sameFloatBits(got[i], want[i]) {
			t.Fatalf("%s: point %d is %+v, a cold run gives %+v", what, i, got[i], want[i])
		}
	}
}

// A sweep parks the scratches its slots used, so a second sweep over the
// same expansion builds none at any worker count, more slots than
// GOMAXPROCS included, and its records are bit-identical to computing
// every point on a new scratch.
func TestSweepParksItsScratches(t *testing.T) {
	for _, src := range idleSpecs {
		e := mustExpand(t, mustParse(t, src))
		if e.NumPoints() < 8 {
			t.Fatalf("%s: %d points do not keep 4 slots busy", e.Spec.Name, e.NumPoints())
		}
		cold := coldResults(e)
		for _, workers := range []int{1, 4} {
			drainIdle()
			sameRecords(t, e.Spec.Name+" first sweep", sweepResults(t, e, workers), cold)
			before := scratchesBuilt()
			sameRecords(t, e.Spec.Name+" second sweep", sweepResults(t, e, workers), cold)
			built := scratchesBuilt() - before
			if built != 0 {
				t.Errorf("%s, %d workers: the second sweep built %d scratches, want 0 (GOMAXPROCS %d)",
					e.Spec.Name, workers, built, runtime.GOMAXPROCS(0))
			}
		}
	}
}

// Sweeps running at once borrow from and park into the one idle set, which
// never holds more scratches than were out at once: from an empty set, two
// sweeps of two slots each leave at most four. Under -race this checks
// that a scratch parked by one sweep's goroutines is handed safely to
// another's.
func TestSweepsShareTheIdleSet(t *testing.T) {
	e := mustExpand(t, mustParse(t, idleSpecs[1]))
	cold := coldResults(e)
	drainIdle()
	const sweeps, slots = 2, 2
	var wg sync.WaitGroup
	for g := 0; g < sweeps; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				out := make([]PointResult, e.NumPoints())
				if err := e.Each(e.All(), SweepOptions{Workers: slots}, func(r PointResult) error {
					out[r.Index] = r
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				for i := range cold {
					if !reflect.DeepEqual(out[i], cold[i]) || !sameFloatBits(out[i], cold[i]) {
						t.Errorf("round %d: point %d differs from a cold run", round, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	idle.Lock()
	parked := len(idle.scratches)
	idle.Unlock()
	if parked > sweeps*slots {
		t.Errorf("%d scratches parked, more than the %d slots that ran at once", parked, sweeps*slots)
	}
}
