package service_test

// Tests of the worker's scratch: each worker borrows one scenario.Scratch
// from the idle set that sweep slots also borrow from, and its core and
// online state serve every schedule and online request that worker runs,
// so responses must own their slices, a request must leave nothing behind
// for the next, and the results must stay those of a scheduler that starts
// from nothing.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ptgsched/internal/core"
	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/online"
	"ptgsched/internal/platform"
	"ptgsched/internal/query"
	"ptgsched/internal/scenario"
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

// A request that panics half way — after scheduling on the worker's
// scratch, inside a second scheduling call — fails alone, and the worker
// drops that scratch for another borrowed one, as a sweep drops the
// scratch of a slot that panicked: the next requests equal the reference,
// and no later request or borrow straight from the idle set sees that
// scratch again.
func TestPanickingRequestDropsItsScratch(t *testing.T) {
	s := newService(t, service.Options{Workers: 1})
	req := seededRequest(3)
	var panicked *core.Scratch
	err := s.RunOnWorkerScratch(context.Background(), func(sc *core.Scratch) {
		panicked = sc
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
	var later []*core.Scratch
	for i := 0; i < 2; i++ {
		if err := s.RunOnWorkerScratch(context.Background(), func(sc *core.Scratch) {
			later = append(later, sc)
		}); err != nil {
			t.Fatal(err)
		}
	}
	var held []*scenario.Scratch
	for i := 0; i <= runtime.GOMAXPROCS(0); i++ {
		sc := scenario.Borrow()
		held, later = append(held, sc), append(later, sc.Core)
	}
	for _, sc := range held {
		sc.Park()
	}
	for i, sc := range later {
		if sc == panicked {
			t.Fatalf("borrow %d after the panic handed out the panicked request's scratch", i)
		}
	}
	if st := s.Stats(); st.Failed != 1 || st.Completed != 4 {
		t.Fatalf("stats %+v, want 1 failed and 4 completed", st)
	}
}

// requireOnlineReference requires resp to equal, bit for bit, what
// online.Schedule computes for req on a scratch of its own.
func requireOnlineReference(t *testing.T, what string, req service.OnlineRequest, resp *service.OnlineResponse) {
	t.Helper()
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
		t.Fatalf("%s: makespan %g after %d rebalances on the worker's scratch, %g after %d on a new one",
			what, resp.Makespan, resp.Rebalances, want.Makespan, want.Rebalances)
	}
	for a, app := range want.Apps {
		if resp.FlowTimes[a] != app.FlowTime() {
			t.Fatalf("%s: app %d flow time %g, want %g", what, a, resp.FlowTimes[a], app.FlowTime())
		}
	}
}

// onlineRequests are online requests over both arrival processes with a
// rate, two families and both completion rules; the first and last repeat.
var onlineRequests = []service.OnlineRequest{
	{Platform: "rennes", Family: "random", Count: 4, Process: "poisson", Rate: 0.2, Strategy: "ES", Seed: 5},
	{Platform: "rennes", Family: "random", Count: 4, Process: "poisson", Rate: 0.2, Strategy: "WPS-work", Seed: 5},
	{Platform: "lille", Family: "fft", Count: 3, Process: "uniform", Rate: 0.5, Strategy: "PS-cp", Seed: 6, NoRebalanceOnCompletion: true},
	{Platform: "rennes", Family: "random", Count: 4, Process: "poisson", Rate: 0.2, Strategy: "ES", Seed: 5},
}

// /v1/online runs on the worker's online scratch, whose allocation traces
// are released with the request: consecutive requests on one worker —
// repeated, on other seeds, strategies and platforms — each equal a run on
// a scratch of its own.
func TestOnlineOnWorkerScratchMatchesFreshRun(t *testing.T) {
	s := newService(t, service.Options{Workers: 1})
	for i, req := range onlineRequests {
		resp, err := s.Online(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		requireOnlineReference(t, fmt.Sprintf("request %d", i), req, resp)
	}
}

// Schedule and online requests share one read-only preset per site:
// running concurrently on four workers — under -race in the race lane —
// they leave every preset equal to a fresh platform.ByName, and each
// response equals a fresh scheduler's on a fresh platform. Site names are
// read case insensitively, as platform.ByName reads them.
func TestSharedPresetsStayUnchanged(t *testing.T) {
	sites := []string{"lille", "Nancy", "rennes", "SOPHIA"}
	s := newService(t, service.Options{Workers: 4})
	var scheds []service.ScheduleRequest
	var onlines []service.OnlineRequest
	for i, site := range sites {
		for k := 0; k < 2; k++ {
			scheds = append(scheds, service.ScheduleRequest{Platform: site, Family: "random", Count: 6,
				Strategy: "WPS-work", Seed: int64(60 + 2*i + k), ComputeOwn: k == 0})
			onlines = append(onlines, service.OnlineRequest{Platform: site, Family: "random", Count: 4,
				Process: "poisson", Rate: 0.2, Strategy: "ES", Seed: int64(70 + 2*i + k)})
		}
	}
	schedResps := make([]*service.ScheduleResponse, len(scheds))
	onlineResps := make([]*service.OnlineResponse, len(onlines))
	errs := make(chan error, len(scheds)+len(onlines))
	var wg sync.WaitGroup
	for i := range scheds {
		wg.Add(2)
		go func() {
			defer wg.Done()
			resp, err := s.Schedule(context.Background(), scheds[i])
			schedResps[i] = resp
			errs <- err
		}()
		go func() {
			defer wg.Done()
			resp, err := s.Online(context.Background(), onlines[i])
			onlineResps[i] = resp
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range scheds {
		requireReference(t, fmt.Sprintf("schedule %d", i), scheds[i], schedResps[i])
		requireOnlineReference(t, fmt.Sprintf("online %d", i), onlines[i], onlineResps[i])
	}
	for _, site := range sites {
		fresh, err := platform.ByName(site)
		if err != nil {
			t.Fatal(err)
		}
		shared := service.Preset(strings.ToLower(site))
		if shared == nil || shared == fresh || !reflect.DeepEqual(shared, fresh) {
			t.Errorf("%s: the shared preset changed under requests or is missing", site)
		}
	}
}

// sharedIdleSpec is a job of 800 static points on two sites and two
// families, far more than its sweep finishes while the requests beside it
// run; it is canceled once they are answered.
const sharedIdleSpec = `{"name":"shared-idle","seed":17,"reps":100,"nptgs":[3,6],"platforms":["lille","rennes"],
	"families":[{"family":"random"},{"family":"strassen"}]}`

// Requests and sweeps borrow from, and park into, one idle set: in each of
// two rounds, a two-worker service runs a job's sweep on one worker while
// schedule and online requests run on the other, and closing the service
// parks its workers' scratches beside the ones the sweep parked, for the
// next round's workers and slots to borrow. Every response equals a fresh
// scheduler's and every job record equals RunPoint's; under -race this
// also checks that a scratch parked on one goroutine is handed safely to
// another.
func TestRequestsAndSweepsShareTheIdleSet(t *testing.T) {
	spec, err := scenario.ParseSpec([]byte(sharedIdleSpec))
	if err != nil {
		t.Fatal(err)
	}
	e, err := scenario.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		s := service.New(service.Options{Workers: 2})
		requestsBesideAJob(t, s, e)
		s.Close()
	}
}

// requestsBesideAJob runs sharedIdleSpec (expanded as e) as a job on s
// while schedule and online requests run, requires the job to be still
// running when the last request is answered, and checks every response and
// every record the job has streamed by then; then it cancels the job.
func requestsBesideAJob(t *testing.T, s *service.Service, e *scenario.Expansion) {
	t.Helper()
	st, err := s.SubmitJob(service.JobRequest{Spec: json.RawMessage(sharedIdleSpec)})
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg        sync.WaitGroup
		schedules []*service.ScheduleResponse
		onlines   []*service.OnlineResponse
		errs      = make(chan error, 2)
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			resp, err := s.Schedule(context.Background(), seededRequest(i))
			if err != nil {
				errs <- err
				return
			}
			schedules = append(schedules, resp)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2*len(onlineRequests); i++ {
			resp, err := s.Online(context.Background(), onlineRequests[i%len(onlineRequests)])
			if err != nil {
				errs <- err
				return
			}
			onlines = append(onlines, resp)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if now, err := s.JobStatusByID(st.ID); err != nil || now.State != service.JobRunning {
		t.Fatalf("the job is %+v (%v) when the requests are answered; they ran beside no sweep", now, err)
	}
	for i, resp := range schedules {
		requireReference(t, fmt.Sprintf("schedule request %d", i), seededRequest(i), resp)
	}
	for i, resp := range onlines {
		requireOnlineReference(t, fmt.Sprintf("online request %d", i), onlineRequests[i%len(onlineRequests)], resp)
	}

	var buf bytes.Buffer
	if err := s.JobResults(st.ID, query.Query{To: query.NoLimit}, &buf); err != nil {
		t.Fatal(err)
	}
	results, err := scenario.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("the job streamed no record beside the requests")
	}
	t.Logf("%d of the job's %d points ran beside the requests", len(results), e.NumPoints())
	for _, r := range results {
		if want := e.RunPoint(e.PointAt(r.Index)); !reflect.DeepEqual(r, want) {
			t.Fatalf("job record %d is %+v, RunPoint gives %+v", r.Index, r, want)
		}
	}
	if _, err := s.CancelJob(st.ID); err != nil {
		t.Fatal(err)
	}
}
