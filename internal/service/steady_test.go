package service

import (
	"testing"

	"ptgsched/internal/scenario"
)

// A worker's steady state: a 64-PTG ES schedule request run on a warm
// worker scratch and released, as the worker runs it. The batch's graphs
// and its mapped schedule live on the scratch, so what a request still
// allocates is its response, its random source and the allocation steps
// its graphs' traces record, plus what adjacency lists and traces grow when
// a batch outgrows the ones before it. Before graphs and schedules were
// recycled this test counted ≈ 19.0k objects per request (the benchmark's
// service_crowded, HTTP included, ≈ 21.2k per op); then ≈ 400, and 275
// since the trace store recycles its allocations and the β vector goes
// into the scratch. The ceiling is twice that.
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
	const ceiling = 550
	t.Logf("%.0f allocations per request", allocs)
	if allocs > ceiling {
		t.Errorf("a request on a warm worker scratch allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}
