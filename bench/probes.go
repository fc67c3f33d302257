package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"time"

	"ptgsched/internal/coord"
	"ptgsched/internal/scenario"
	"ptgsched/internal/service"
	"ptgsched/internal/sim"
)

// fleetPass coordinates a strassen campaign over min(W, 2) in-process
// workers with no faults injected, for the lease → sweep → merge numbers,
// and checks the merged tables against a local sweep of the same points.
// It is part of every traced run; it is reported, not gated.
func fleetPass(cfg config, tr *tracer) (slice, error) {
	sl := slice{workload: "fleet", counts: make(map[string]float64)}
	reps := 8 // × 3 PTG counts × 4 sites = 96 points
	if cfg.tiny {
		reps = 1
	}
	spec := fmt.Sprintf(`{"name":"fleet","seed":%d,"reps":%d,"nptgs":[2,4,6],"families":[{"family":"strassen"}]}`, cfg.seed, reps)
	workers := min(cfg.width, 2)
	urls := make([]string, workers)
	for i := range urls {
		svc := service.New(service.Options{Workers: 1})
		defer svc.Close()
		srv := httptest.NewServer(service.Handler(svc))
		defer srv.Close()
		urls[i] = srv.URL
	}
	c, err := coord.New([]byte(spec), urls, coord.Options{PollInterval: 5 * time.Millisecond})
	if err != nil {
		return sl, err
	}
	sl.ops = c.NumPoints()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	root := tr.begin("coord.run", -1, 0)
	tables, err := c.Run(ctx)
	tr.end(root)
	if err != nil {
		return sl, err
	}
	sl.traced = time.Duration(tr.spans[root].End - tr.spans[root].Start)

	e := c.Expansion()
	agg := e.NewAggregator()
	t0 := time.Now()
	if err := e.RunEach(e.All(), 1, agg.Add); err != nil {
		return sl, err
	}
	sl.untraced = time.Since(t0)
	local, err := agg.Tables()
	if err != nil {
		return sl, err
	}
	if !sameTables(tables, local) {
		sl.failed = sl.ops
	}
	cs := c.Counters()
	sl.counts["coord.workers"] = float64(workers)
	sl.counts["coord.dispatches"] = float64(cs.Dispatches)
	sl.counts["coord.retries"] = float64(cs.Retries)
	sl.counts["coord.reassignments"] = float64(cs.Reassignments)
	sl.layers = tr.layers(sl.ops)
	sl.spans = tr.spans
	return sl, nil
}

// microProbes times the layer entry points no workload reaches from
// outside on their own: the fair-share solve (1000 flows over 24 links,
// the shape benchsuite.FairShare1000Flows uses), spec expansion, and
// lazy point generation.
func microProbes(cfg config, tr *tracer) (slice, error) {
	sl := slice{workload: "micro", counts: make(map[string]float64)}
	r := rand.New(rand.NewSource(cfg.seed))
	links := make([]*sim.Link, 24)
	for i := range links {
		links[i] = sim.NewLink(fmt.Sprintf("l%02d", i), 1e9*(0.5+r.Float64()), 1e-4)
	}
	flows := make([]*sim.Flow, 1000)
	for i := range flows {
		route := []*sim.Link{links[r.Intn(len(links))]}
		for len(route) < 3 && r.Intn(2) == 0 {
			l := links[r.Intn(len(links))]
			dup := false
			for _, have := range route {
				dup = dup || have == l
			}
			if !dup {
				route = append(route, l)
			}
		}
		flows[i] = sim.NewTestFlow(route, 1e8*(1+r.Float64()))
	}
	for i := 0; i < 20; i++ {
		id := tr.begin("sim.fairshare_1000", -1, i)
		sim.FairShareRates(flows)
		tr.end(id)
	}

	specJSON := []byte(staticSpec(cfg.seed, cfg.tiny))
	var e *scenario.Expansion
	for i := 0; i < 20; i++ {
		id := tr.begin("scenario.expand", -1, i)
		spec, err := scenario.ParseSpec(specJSON)
		if err == nil {
			e, err = scenario.Expand(spec)
		}
		tr.end(id)
		if err != nil {
			return sl, err
		}
	}
	const pointAts = 20000
	n := e.NumPoints()
	id := tr.begin("scenario.point_at", -1, 0)
	for i := 0; i < pointAts; i++ {
		microSink += len(e.PointAt(i % n).Name)
	}
	tr.end(id)
	sl.counts["scenario.point_at.calls"] = pointAts
	sl.ops = 1
	sl.layers = tr.layers(sl.ops)
	sl.spans = tr.spans
	return sl, nil
}

var microSink int
