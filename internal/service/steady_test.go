package service

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"ptgsched/internal/scenario"
)

// A request's steady state: a 64-PTG ES schedule request run on a warm
// scratch and released, as Park releases it. The batch's graphs,
// its mapped schedule and its seeded source live on the scratch, and its
// graph names come from daggen's table, so what a request still allocates
// is its response, plus what adjacency lists and traces grow when a batch
// outgrows the ones before it. Before graphs and schedules were recycled
// this test counted ≈ 19.0k objects per request (the benchmark's
// service_crowded, HTTP included, ≈ 21.2k per op); then ≈ 400; 275 once
// the trace store recycled its allocations and the β vector went into the
// scratch; and 16–19 since graph names are made once and the source is the
// scratch's. The ceiling is twice that.
func TestScheduleRequestAllocsOnWarmScratch(t *testing.T) {
	var scs []scheduleScenario
	var reqs []ScheduleRequest
	for i, site := range []string{"lille", "nancy", "rennes", "sophia"} {
		req := ScheduleRequest{Platform: site, Family: "random", Count: 64, Strategy: "ES", Seed: int64(301 + i)}
		sc, err := req.resolve()
		if err != nil {
			t.Fatal(err)
		}
		scs, reqs = append(scs, sc), append(reqs, req)
	}
	ws := scenario.NewScratch()
	run := func(i int) {
		scs[i].run(reqs[i], ws.Core)
		ws.Release()
	}
	for i := range scs {
		run(i)
	}
	next := 0
	allocs := testing.AllocsPerRun(8, func() {
		run(next % len(scs))
		next++
	})
	const ceiling = 40
	t.Logf("%.0f allocations per request", allocs)
	if allocs > ceiling {
		t.Errorf("a request on a warm scratch allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}

// The same steady state through the public API, at one and two workers:
// Service.Schedule on a warm service, whose requests borrow the scratches
// earlier requests parked. On top of the run above, a request allocates
// its job, its closure, its outcome channel and its deadline context, and
// its site is a shared preset: 19–29 objects per request (≈ 310 before
// graph names, sources and presets were made once). The ceiling is twice
// that. A request that built a cold scratch would read ≈ 16k objects.
// Every worker runs every request once before the count, so no request
// on a scratch that may be new is counted.
func TestScheduleAllocsThroughWarmService(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not comparable")
	}
	var reqs []ScheduleRequest
	for i, site := range []string{"lille", "nancy", "rennes", "sophia"} {
		reqs = append(reqs, ScheduleRequest{Platform: site, Family: "random", Count: 64, Strategy: "ES", Seed: int64(301 + i)})
	}
	for _, workers := range []int{1, 2} {
		s := New(Options{Workers: workers})
		for _, req := range reqs {
			onEveryWorker(t, s, workers, req)
		}
		next := 0
		schedule := func() {
			if _, err := s.Schedule(context.Background(), reqs[next%len(reqs)]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		allocs := testing.AllocsPerRun(8, schedule)
		s.Close()
		const ceiling = 60
		t.Logf("%d workers: %.0f allocations per request", workers, allocs)
		if allocs > ceiling {
			t.Errorf("%d workers: a request on a warm service allocates %.0f objects, ceiling %d", workers, allocs, ceiling)
		}
	}
}

// Concurrent requests on more workers than GOMAXPROCS run as warm as
// sequential ones: the idle set keeps every scratch a burst parks, however
// many there are, so the next burst borrows them all and builds none cold
// (≈ 16k objects for each). Every burst holds each worker in one schedule
// request at once, so all of them are in flight together; the first burst
// warms as many scratches as there are workers. It reads 32–41 objects per
// request at GOMAXPROCS 1–8 (285–304 before graph names, sources and
// presets were made once); the ceiling is twice that.
func TestConcurrentRequestsOnMoreWorkersThanGOMAXPROCSStayWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not comparable")
	}
	req := ScheduleRequest{Platform: "rennes", Family: "random", Count: 64, Strategy: "ES", Seed: 301}
	workers := runtime.GOMAXPROCS(0) + 2
	s := New(Options{Workers: workers})
	defer s.Close()
	onEveryWorker(t, s, workers, req)

	const bursts = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b := 0; b < bursts; b++ {
		onEveryWorker(t, s, workers, req)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(bursts*workers)
	const ceiling = 90
	t.Logf("%d workers: %.0f allocations per request", workers, allocs)
	if allocs > ceiling {
		t.Errorf("%d workers: a concurrent request allocates %.0f objects, ceiling %d", workers, allocs, ceiling)
	}
}

// onEveryWorker runs req once on each of s's workers, holding all of them
// in it, each on a scratch it borrowed, at once, as a schedule request
// runs.
func onEveryWorker(t *testing.T, s *Service, workers int, req ScheduleRequest) {
	t.Helper()
	sc, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	var done, inside sync.WaitGroup
	inside.Add(workers)
	for i := 0; i < workers; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			_, err := submit[ScheduleResponse](context.Background(), s, "schedule", func(context.Context) (any, error) {
				ws := scenario.Borrow()
				inside.Done()
				inside.Wait()
				out := sc.run(req, ws.Core)
				ws.Park()
				return out, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	done.Wait()
}
