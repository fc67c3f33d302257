package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ptgsched/internal/service"
)

// newService returns a small test service and arranges its shutdown.
func newService(t *testing.T, opts service.Options) *service.Service {
	t.Helper()
	s := service.New(opts)
	t.Cleanup(s.Close)
	return s
}

// waitStats polls the service stats until ok holds or a deadline passes.
func waitStats(t *testing.T, s *service.Service, ok func(service.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ok(s.Stats()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition not reached; stats: %+v", s.Stats())
}

// smallReq is a cheap deterministic schedule request.
func smallReq(seed int64) service.ScheduleRequest {
	return service.ScheduleRequest{
		Platform: "lille",
		Family:   "strassen",
		Count:    2,
		Strategy: "ES",
		Seed:     seed,
	}
}

func TestScheduleDeterministic(t *testing.T) {
	s := newService(t, service.Options{Workers: 2})
	a, err := s.Schedule(context.Background(), smallReq(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Schedule(context.Background(), smallReq(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("same seed, different makespans: %g vs %g", a.Makespan, b.Makespan)
	}
	if a.Makespan <= 0 {
		t.Fatalf("non-positive makespan %g", a.Makespan)
	}
	if len(a.Betas) != 2 || len(a.AppMakespans) != 2 {
		t.Fatalf("expected 2 apps, got %d betas / %d makespans", len(a.Betas), len(a.AppMakespans))
	}
	for _, beta := range a.Betas {
		if math.Abs(beta-0.5) > 1e-12 {
			t.Fatalf("ES beta = %g, want 0.5", beta)
		}
	}
}

func TestScheduleComputeOwn(t *testing.T) {
	s := newService(t, service.Options{Workers: 1})
	req := smallReq(3)
	req.ComputeOwn = true
	resp, err := s.Schedule(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Unfairness == nil {
		t.Fatal("ComputeOwn set but no unfairness reported")
	}
	if len(resp.Slowdowns) != 2 {
		t.Fatalf("%d slowdowns", len(resp.Slowdowns))
	}
	for i, sl := range resp.Slowdowns {
		if sl <= 0 || math.IsNaN(sl) {
			t.Fatalf("slowdown[%d] = %g", i, sl)
		}
	}
}

// TestConcurrentScheduleRequests drives well over 8 concurrent schedule
// requests through a shared service — the acceptance scenario for the
// -race job — and checks every response is the deterministic one for its
// seed.
func TestConcurrentScheduleRequests(t *testing.T) {
	s := newService(t, service.Options{Workers: 4, QueueDepth: 64})

	// Reference responses, computed sequentially.
	const seeds = 8
	want := make([]float64, seeds)
	for i := range want {
		resp, err := s.Schedule(context.Background(), smallReq(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resp.Makespan
	}

	const clients = 24
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			seed := c % seeds
			resp, err := s.Schedule(context.Background(), smallReq(int64(seed)))
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", c, err)
				return
			}
			if resp.Makespan != want[seed] {
				errs <- fmt.Errorf("client %d: makespan %g, want %g", c, resp.Makespan, want[seed])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Stats()
	if st.Completed != seeds+clients {
		t.Errorf("completed = %d, want %d", st.Completed, seeds+clients)
	}
	if st.CompletedByKind["schedule"] != seeds+clients {
		t.Errorf("schedule completions = %d", st.CompletedByKind["schedule"])
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("idle service reports in_flight=%d queued=%d", st.InFlight, st.Queued)
	}
}

// TestMixedRequestKindsConcurrently exercises all three request kinds at
// once, which is what the -race job is really after: schedule, online and
// workload pipelines sharing nothing but platforms and counters.
func TestMixedRequestKindsConcurrently(t *testing.T) {
	s := newService(t, service.Options{Workers: 4, QueueDepth: 64})
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Schedule(context.Background(), smallReq(int64(i))); err != nil {
				errs <- err
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Online(context.Background(), service.OnlineRequest{
				Platform: "lille", Family: "strassen", Count: 2,
				Process: "poisson", Rate: 0.5, Strategy: "ES", Seed: int64(i),
			})
			if err != nil {
				errs <- err
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Workload(context.Background(), service.WorkloadRequest{
				Family: "fft", Count: 3, Process: "uniform", Rate: 1, Seed: int64(i),
			})
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.Stats()
	for _, kind := range []string{"schedule", "online", "workload"} {
		if st.CompletedByKind[kind] != 4 {
			t.Errorf("%s completions = %d, want 4", kind, st.CompletedByKind[kind])
		}
	}
}

func TestOnlineDeterministicAndOrdered(t *testing.T) {
	s := newService(t, service.Options{Workers: 2})
	req := service.OnlineRequest{
		Platform: "rennes", Family: "strassen", Count: 3,
		Process: "uniform", Rate: 0.5, Strategy: "WPS-work", Seed: 11,
	}
	a, err := s.Online(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Online(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.MeanFlowTime != b.MeanFlowTime {
		t.Fatalf("online run not deterministic: %+v vs %+v", a, b)
	}
	if len(a.FlowTimes) != 3 {
		t.Fatalf("%d flow times", len(a.FlowTimes))
	}
	for i, ft := range a.FlowTimes {
		if ft <= 0 {
			t.Fatalf("flow time[%d] = %g", i, ft)
		}
	}
}

func TestWorkloadSummary(t *testing.T) {
	s := newService(t, service.Options{Workers: 1})
	resp, err := s.Workload(context.Background(), service.WorkloadRequest{
		Family: "strassen", Count: 5, Process: "uniform", Rate: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Apps) != 5 {
		t.Fatalf("%d apps", len(resp.Apps))
	}
	// Uniform at rate 2: arrivals at 0, 0.5, ..., 2.
	if math.Abs(resp.Span-2) > 1e-12 {
		t.Fatalf("span = %g, want 2", resp.Span)
	}
	for _, app := range resp.Apps {
		if app.Tasks != 25 { // every Strassen PTG has 25 tasks
			t.Fatalf("strassen app with %d tasks", app.Tasks)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	s := newService(t, service.Options{Workers: 1})
	cases := []service.ScheduleRequest{
		{Platform: "mars"},
		{Family: "cyclic"},
		{Strategy: "FIFO"},
		{Count: -1},
		{Count: 1000},
	}
	for _, req := range cases {
		_, err := s.Schedule(context.Background(), req)
		var verr *service.ValidationError
		if !errors.As(err, &verr) {
			t.Errorf("request %+v: error %v is not a ValidationError", req, err)
		}
	}
	if got := s.Stats().Invalid; got != uint64(len(cases)) {
		t.Errorf("invalid counter = %d, want %d", got, len(cases))
	}
}

func TestQueueFullRejects(t *testing.T) {
	// One worker, one queue slot: occupy the worker, fill the slot, then a
	// third request must be rejected immediately. Blocking test jobs make
	// the saturation deterministic.
	s := newService(t, service.Options{Workers: 1, QueueDepth: 1})

	var wg sync.WaitGroup
	defer wg.Wait()
	release := make(chan struct{})
	defer close(release)
	// Stage the two blocking jobs: the first must reach a worker (freeing
	// the queue slot) before the second can occupy the queue.
	submitBlocking := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.SubmitTestJob(context.Background(), release); err != nil {
				t.Error(err)
			}
		}()
	}
	submitBlocking()
	waitStats(t, s, func(st service.Stats) bool { return st.InFlight == 1 })
	submitBlocking()
	waitStats(t, s, func(st service.Stats) bool { return st.InFlight == 1 && st.Queued == 1 })

	_, err := s.Schedule(context.Background(), smallReq(3))
	if !errors.Is(err, service.ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	if s.Stats().Rejected == 0 {
		t.Error("rejected counter not incremented")
	}
}

func TestRequestTimeout(t *testing.T) {
	// A blocking job held past the request timeout must yield
	// DeadlineExceeded and be accounted as expired exactly once.
	s := newService(t, service.Options{Workers: 1, RequestTimeout: 50 * time.Millisecond})
	release := make(chan struct{})
	defer close(release)
	err := s.SubmitTestJob(context.Background(), release)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded, got %v", err)
	}
	st := s.Stats()
	if st.Expired != 1 || st.Completed != 0 || st.Failed != 0 {
		t.Fatalf("accounting after timeout: %+v", st)
	}
}

func TestClosedServiceRejects(t *testing.T) {
	s := service.New(service.Options{Workers: 1})
	s.Close()
	s.Close() // idempotent
	_, err := s.Schedule(context.Background(), smallReq(1))
	if !errors.Is(err, service.ErrClosed) {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
}

// --- HTTP layer ---

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHTTPScheduleRoundTrip(t *testing.T) {
	s := newService(t, service.Options{Workers: 2})
	h := service.Handler(s)

	w := postJSON(t, h, "/v1/schedule", smallReq(5))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp service.ScheduleResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Makespan <= 0 || resp.Platform != "Lille" || resp.Strategy != "ES" {
		t.Fatalf("bad response: %+v", resp)
	}

	// Same request straight through the service must agree with the wire.
	direct, err := s.Schedule(context.Background(), smallReq(5))
	if err != nil {
		t.Fatal(err)
	}
	if direct.Makespan != resp.Makespan {
		t.Fatalf("wire %g != direct %g", resp.Makespan, direct.Makespan)
	}
}

func TestHTTPValidationAndErrors(t *testing.T) {
	s := newService(t, service.Options{Workers: 1})
	h := service.Handler(s)

	if w := postJSON(t, h, "/v1/schedule", service.ScheduleRequest{Platform: "mars"}); w.Code != http.StatusBadRequest {
		t.Errorf("unknown platform: status %d", w.Code)
	}
	// Unknown fields are rejected.
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(`{"platfrom":"rennes"}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", w.Code)
	}
	// Wrong method.
	req = httptest.NewRequest(http.MethodGet, "/v1/schedule", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET on schedule: status %d", w.Code)
	}
}

func TestHTTPStatsAndMetrics(t *testing.T) {
	s := newService(t, service.Options{Workers: 2})
	h := service.Handler(s)
	if w := postJSON(t, h, "/v1/schedule", smallReq(1)); w.Code != http.StatusOK {
		t.Fatalf("schedule failed: %d %s", w.Code, w.Body)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("stats status %d", w.Code)
	}
	var st service.Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Completed != 1 || st.CompletedByKind["schedule"] != 1 {
		t.Fatalf("stats %+v", st)
	}

	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	body := w.Body.String()
	for _, want := range []string{
		"ptgserve_requests_completed_total 1",
		`ptgserve_requests_completed_by_kind_total{kind="schedule"} 1`,
		"# TYPE ptgserve_requests_completed_total counter",
		"# TYPE ptgserve_workers gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Errorf("healthz: %d %q", w.Code, w.Body)
	}
}

func TestHTTPQueueFullMapsTo429(t *testing.T) {
	s := newService(t, service.Options{Workers: 1, QueueDepth: 1})
	h := service.Handler(s)

	// Saturate the pool and the queue with blocking jobs, then the wire
	// must answer 429 with a Retry-After hint.
	var wg sync.WaitGroup
	defer wg.Wait()
	release := make(chan struct{})
	defer close(release)
	// Stage the two blocking jobs: the first must reach a worker (freeing
	// the queue slot) before the second can occupy the queue.
	submitBlocking := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.SubmitTestJob(context.Background(), release); err != nil {
				t.Error(err)
			}
		}()
	}
	submitBlocking()
	waitStats(t, s, func(st service.Stats) bool { return st.InFlight == 1 })
	submitBlocking()
	waitStats(t, s, func(st service.Stats) bool { return st.InFlight == 1 && st.Queued == 1 })

	w := postJSON(t, h, "/v1/schedule", smallReq(9))
	if w.Code != http.StatusTooManyRequests {
		t.Errorf("status %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}
