package online

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ptgsched/internal/alloc"
	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/mapping"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
)

// eagerSchedule is the driver as it was while every rebalance allocated:
// run's loop, with every active application's allocation computed after
// each instant's events, whether or not a decision reads it.
func eagerSchedule(pf *platform.Platform, arrivals []Arrival, opts Options) *Result {
	s := newScheduler(NewScratch(), pf, arrivals, opts)
	for s.advance() {
		for _, app := range s.activeApps() {
			s.allocate(app)
		}
		s.dispatch()
	}
	s.finish()
	return s.result
}

// Allocating when dispatch first reads an allocation changes no decision:
// over runs shaped like BenchmarkScheduleDynamic's — Poisson arrivals, a
// speed change, a failure in the middle of a placement and its repair —
// under ES and WPS-work, Restart and Checkpoint, every placement, every
// application record and every count equals the eager driver's.
func FuzzLazyAllocationMatchesEager(f *testing.F) {
	f.Add(int64(301), uint8(8), false, true, 40.0, 0.5, 0.5, 40.0) // the benchmark's run
	f.Add(int64(42), uint8(4), true, false, 10.0, 2.0, 0.1, 0.0)
	f.Add(int64(7), uint8(6), true, true, 200.0, 0.25, 0.9, 150.0)
	f.Add(int64(11), uint8(1), false, false, 0.0, 1.0, 0.0, 5.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, wps, checkpoint bool, speedAt, factor, hit, repair float64) {
		opts := Options{Strategy: strategy.ES()}
		if wps {
			opts.Strategy = strategy.WPS(strategy.Work, strategy.DefaultMu(strategy.Work, daggen.FamilyRandom))
		}
		if checkpoint {
			opts.Policy = Checkpoint
		}
		speedAt, factor = clamp(speedAt, 0, 500), clamp(factor, 0.1, 4)
		hit, repair = clamp(hit, 0, 1), clamp(repair, 0, 300)
		pf, arrivals, opts := dynamicShape(seed, 1+int(n%8), opts, speedAt, factor, hit, repair)
		what := fmt.Sprintf("seed %d, %d apps, %s %v, speed ×%g at %g, hit %g, repair %g",
			seed, len(arrivals), opts.Strategy.Name(), opts.Policy, factor, speedAt, hit, repair)
		sameRun(t, what, Schedule(pf, arrivals, opts), eagerSchedule(pf, arrivals, opts))
	})
}

// clamp maps x into [lo, hi], NaN to lo.
func clamp(x, lo, hi float64) float64 {
	if math.IsNaN(x) {
		return lo
	}
	return math.Min(math.Max(x, lo), hi)
}

// An application whose only unfinished task is running when another one
// arrives is not allocated at that arrival: the rebalance records its new
// share, and no dispatch reads it. Under selfish shares its β stays 1, so
// an allocation would be answered from its trace and show as a repeat.
func TestRebalanceAllocatesOnlyWhatDispatchReads(t *testing.T) {
	pf := platform.New("test", true, platform.ClusterSpec{Name: "c0", Procs: 4, Speed: 1})
	long, short := dag.New("long"), dag.New("short")
	long.AddTask("long-a", 1, 100, 0)
	short.AddTask("short-a", 1, 1, 0)
	s := newScheduler(NewScratch(), pf, []Arrival{{Graph: long}, {Graph: short, At: 5}}, Options{Strategy: strategy.S()})

	if !s.advance() || s.now != 0 {
		t.Fatalf("first instant at %g, want 0", s.now)
	}
	s.dispatch()
	if st := s.tasks[0][0].state; st != taskRunning {
		t.Fatalf("the long task is in state %d at 0, want running", st)
	}
	before := s.sc.traces

	if !s.advance() || s.now != 5 {
		t.Fatalf("second instant at %g, want the arrival at 5", s.now)
	}
	s.dispatch()
	if s.allocs[0] != nil {
		t.Error("the application with nothing to dispatch was allocated")
	}
	if s.allocs[1] == nil {
		t.Fatal("the arriving application was not allocated")
	}
	var alone alloc.Traces
	alone.Compute(short, pf.ReferenceCluster(), 1, alloc.SCRAP)
	after := s.sc.traces
	if got := [3]int{after.Grown - before.Grown, after.Replayed - before.Replayed, after.Repeated - before.Repeated}; got != [3]int{alone.Grown, 0, 0} {
		t.Errorf("the arrival's instant grew, replayed and repeated %v steps; the arriving application alone grows %d", got, alone.Grown)
	}
}

// The Result of a run on a scratch is the caller's: a second run on the
// same scratch, over other arrivals, leaves every field of the first run's
// placements, processor lists included, as it was.
func TestResultOutlivesTheNextRun(t *testing.T) {
	pf, arrivals, opts := benchShape()
	sc := NewScratch()
	first := ScheduleWith(sc, pf, arrivals, opts)
	kept := *first
	kept.Placements = make([]*mapping.Placement, len(first.Placements))
	for i, p := range first.Placements {
		q := *p
		q.Procs = slices.Clone(p.Procs)
		kept.Placements[i] = &q
	}
	kept.Apps = slices.Clone(first.Apps)
	kept.Cancelled = slices.Clone(first.Cancelled)
	kept.Restarts = slices.Clone(first.Restarts)

	ScheduleWith(sc, pf, fourArrivals(7, daggen.FamilyFFT), Options{Strategy: strategy.ES()})
	sameRun(t, "the first result after a second run", first, &kept)
}

// What a run on a carried scratch allocates: its result and the blocks its
// placements and processor lists are cut from. BenchmarkScheduleDynamic's
// run allocated 407 objects while every placement and bottom-level vector
// was its own allocation, 43 once they were cut from per-run blocks, and
// 11 since the run's tasks, vectors, event queue and β vectors live on the
// scratch; the ceiling is twice that.
func TestScheduleWithAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not comparable")
	}
	pf, arrivals, opts := benchShape()
	sc := NewScratch()
	ScheduleWith(sc, pf, arrivals, opts)
	allocs := testing.AllocsPerRun(20, func() { ScheduleWith(sc, pf, arrivals, opts) })
	const ceiling = 22
	t.Logf("%.0f allocations per run", allocs)
	if allocs > ceiling {
		t.Errorf("a run on a carried scratch allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}
