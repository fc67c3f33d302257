package service_test

// Tests of the worker-owned scratch: one core.Scratch and one
// online.Scratch per worker serve every schedule and online request that
// worker runs, so responses must own their slices, a request must leave
// nothing behind for the next, and the results must stay those of a
// scheduler that starts from nothing.

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ptgsched/internal/core"
	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/online"
	"ptgsched/internal/platform"
	"ptgsched/internal/service"
	"ptgsched/internal/strategy"
	"ptgsched/internal/workload"
)

// materialize generates a request's batch the way Service.Schedule does.
func materialize(t *testing.T, req service.ScheduleRequest) (*platform.Platform, []*dag.Graph, strategy.Strategy) {
	t.Helper()
	pf, err := platform.ByName(req.Platform)
	if err != nil {
		t.Fatal(err)
	}
	fam, err := daggen.FamilyByName(req.Family)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := strategy.ByName(req.Strategy, -1, fam)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(req.Seed))
	graphs := make([]*dag.Graph, req.Count)
	for i := range graphs {
		graphs[i] = daggen.Generate(fam, r)
	}
	return pf, graphs, strat
}

// requireReference requires resp to equal, bit for bit, what a scheduler
// without a scratch to reuse computes for req.
func requireReference(t *testing.T, what string, req service.ScheduleRequest, resp *service.ScheduleResponse) {
	t.Helper()
	pf, graphs, strat := materialize(t, req)
	sched := core.New(pf)
	var own []float64
	if req.ComputeOwn {
		for _, g := range graphs {
			own = append(own, sched.ScheduleAlone(g))
		}
	}
	want := sched.Schedule(graphs, strat)
	if !reflect.DeepEqual(resp.Betas, want.Betas) || !reflect.DeepEqual(resp.AppMakespans, want.Exec.AppMakespans) ||
		resp.Makespan != want.Exec.Makespan {
		t.Fatalf("%s: betas %v makespans %v (%v), want %v %v (%v)", what,
			resp.Betas, resp.AppMakespans, resp.Makespan, want.Betas, want.Exec.AppMakespans, want.Exec.Makespan)
	}
	if !req.ComputeOwn {
		if resp.Slowdowns != nil || resp.Unfairness != nil {
			t.Fatalf("%s: slowdowns reported without compute_own", what)
		}
		return
	}
	ev := want.Evaluate(own)
	if !reflect.DeepEqual(resp.Slowdowns, ev.Slowdowns) || resp.Unfairness == nil || *resp.Unfairness != ev.Unfairness {
		t.Fatalf("%s: slowdowns %v, want %v (unfairness %v)", what, resp.Slowdowns, ev.Slowdowns, ev.Unfairness)
	}
}

// seededRequest draws request i of a fixed sequence: all four sites, two
// families, every paper strategy, batches of 1 to 12, a third of them with
// compute_own.
func seededRequest(i int) service.ScheduleRequest {
	sites := []string{"lille", "nancy", "rennes", "sophia"}
	families := []string{"random", "strassen"}
	strategies := []string{"ES", "S", "PS-work", "WPS-work", "WPS-width"}
	return service.ScheduleRequest{
		Platform:   sites[i%len(sites)],
		Family:     families[i/2%len(families)],
		Strategy:   strategies[i%len(strategies)],
		Count:      1 + i*5%12,
		Seed:       int64(900 + i),
		ComputeOwn: i%3 == 0,
	}
}

func TestScheduleOnWorkerScratchMatchesFreshScheduler(t *testing.T) {
	s := newService(t, service.Options{Workers: 1})
	for i := 0; i < 20; i++ {
		req := seededRequest(i)
		resp, err := s.Schedule(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		requireReference(t, strings.Join([]string{req.Platform, req.Family, req.Strategy}, " "), req, resp)
	}
}

// A response's slices are its own: the worker's next request, which reuses
// the scratch the first one ran on, must not show through them.
func TestScheduleResponsesDoNotAliasTheScratch(t *testing.T) {
	s := newService(t, service.Options{Workers: 1})
	first, err := s.Schedule(context.Background(), service.ScheduleRequest{
		Platform: "rennes", Family: "random", Strategy: "WPS-work", Count: 6, Seed: 5, ComputeOwn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	makespans := append([]float64(nil), first.AppMakespans...)
	betas := append([]float64(nil), first.Betas...)
	slowdowns := append([]float64(nil), first.Slowdowns...)
	if _, err := s.Schedule(context.Background(), service.ScheduleRequest{
		Platform: "nancy", Family: "random", Strategy: "ES", Count: 6, Seed: 6, ComputeOwn: true,
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.AppMakespans, makespans) || !reflect.DeepEqual(first.Betas, betas) ||
		!reflect.DeepEqual(first.Slowdowns, slowdowns) {
		t.Fatalf("the first response changed under the second request:\nmakespans %v, were %v\nbetas %v, were %v\nslowdowns %v, were %v",
			first.AppMakespans, makespans, first.Betas, betas, first.Slowdowns, slowdowns)
	}
}

// A schedule response's β vector is copied out of the worker's scratch,
// where the scheduler computes it: under every strategy, the next request
// on the worker — the same batch size under another strategy, which
// computes its β into the same storage — leaves it as it was.
func TestScheduleResponseBetasSurviveTheNextRequest(t *testing.T) {
	s := newService(t, service.Options{Workers: 1})
	names := strategy.Names()
	for i, name := range names {
		req := service.ScheduleRequest{Platform: "lille", Family: "random", Strategy: name, Count: 5, Seed: int64(40 + i)}
		first, err := s.Schedule(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		betas := append([]float64(nil), first.Betas...)
		next := req
		next.Strategy, next.Seed = names[(i+1)%len(names)], req.Seed+100
		if _, err := s.Schedule(context.Background(), next); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Betas, betas) {
			t.Fatalf("%s: β changed under the next request from %v to %v", name, betas, first.Betas)
		}
		requireReference(t, name, req, first)
	}
}

// A request that panics half way — after scheduling on the worker's scratch,
// inside a second scheduling call — fails alone: the worker, and its
// scratch, serve the next request as if nothing had happened.
func TestPanickingRequestLeavesWorkerScratchUsable(t *testing.T) {
	s := newService(t, service.Options{Workers: 1})
	req := seededRequest(3)
	err := s.RunOnWorkerScratch(context.Background(), func(sc *core.Scratch) {
		pf, graphs, strat := materialize(t, req)
		sched := core.New(pf)
		sched.ScheduleAloneWith(sc, graphs[0])
		sched.ScheduleWith(sc, graphs, strat)
		sched.ScheduleWith(sc, nil, strat) // core: empty batch
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("the panicking request returned %v", err)
	}
	for _, again := range []service.ScheduleRequest{req, seededRequest(4)} {
		resp, err := s.Schedule(context.Background(), again)
		if err != nil {
			t.Fatal(err)
		}
		requireReference(t, "after a panic", again, resp)
	}
	if st := s.Stats(); st.Failed != 1 || st.Completed != 2 {
		t.Fatalf("stats %+v, want 1 failed and 2 completed", st)
	}
}

// /v1/online runs on the worker's online scratch, whose allocation traces
// are released with the request: consecutive requests on one worker —
// repeated, on other seeds, strategies and platforms — each equal a run on
// a scratch of its own.
func TestOnlineOnWorkerScratchMatchesFreshRun(t *testing.T) {
	s := newService(t, service.Options{Workers: 1})
	reqs := []service.OnlineRequest{
		{Platform: "rennes", Family: "random", Count: 4, Process: "poisson", Rate: 0.2, Strategy: "ES", Seed: 5},
		{Platform: "rennes", Family: "random", Count: 4, Process: "poisson", Rate: 0.2, Strategy: "WPS-work", Seed: 5},
		{Platform: "lille", Family: "fft", Count: 3, Process: "uniform", Rate: 0.5, Strategy: "PS-cp", Seed: 6, NoRebalanceOnCompletion: true},
		{Platform: "rennes", Family: "random", Count: 4, Process: "poisson", Rate: 0.2, Strategy: "ES", Seed: 5},
	}
	for i, req := range reqs {
		resp, err := s.Online(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := platform.ByName(req.Platform)
		if err != nil {
			t.Fatal(err)
		}
		fam, err := daggen.FamilyByName(req.Family)
		if err != nil {
			t.Fatal(err)
		}
		process, err := workload.ProcessByName(req.Process)
		if err != nil {
			t.Fatal(err)
		}
		strat, err := strategy.ByName(req.Strategy, -1, fam)
		if err != nil {
			t.Fatal(err)
		}
		arrivals := workload.Generate(workload.Spec{Family: fam, Count: req.Count, Process: process, Rate: req.Rate},
			rand.New(rand.NewSource(req.Seed)))
		want := online.Schedule(pf, arrivals, online.Options{Strategy: strat, NoRebalanceOnCompletion: req.NoRebalanceOnCompletion})
		if resp.Makespan != want.Makespan || resp.Rebalances != want.Rebalances {
			t.Fatalf("request %d: makespan %g after %d rebalances on the worker's scratch, %g after %d on a new one",
				i, resp.Makespan, resp.Rebalances, want.Makespan, want.Rebalances)
		}
		for a, app := range want.Apps {
			if resp.FlowTimes[a] != app.FlowTime() {
				t.Fatalf("request %d: app %d flow time %g, want %g", i, a, resp.FlowTimes[a], app.FlowTime())
			}
		}
	}
}
