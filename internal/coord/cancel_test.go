package coord

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ptgsched/internal/service"
)

// slowSpec takes each worker seconds to sweep, so a lease is still
// running when the test cancels the coordinator.
const slowSpec = `{
	"name": "fleetcancel",
	"seed": 9,
	"reps": 500,
	"nptgs": [2, 3],
	"platforms": ["lille", "rennes"],
	"families": [{"family": "strassen"}]
}`

// waitUntil polls cond every few milliseconds for up to 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestCoordinatorCancelMidRunCancelsRunningJobs: when the caller's
// context dies while leases run, Run returns context.Canceled, every
// worker's running job reads canceled (cancelRunning's best-effort
// DELETE), and once the workers close no goroutine of the run is left.
func TestCoordinatorCancelMidRunCancelsRunningJobs(t *testing.T) {
	base := runtime.NumGoroutine()
	svcs := make([]*service.Service, 2)
	servers := make([]*httptest.Server, len(svcs))
	urls := make([]string, len(svcs))
	for i := range svcs {
		svcs[i] = service.New(service.Options{Workers: 1})
		servers[i] = httptest.NewServer(service.Handler(svcs[i]))
		urls[i] = servers[i].URL
	}
	c, err := New([]byte(slowSpec), urls, Options{PollInterval: 10 * time.Millisecond, Client: fastClient})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx)
		done <- err
	}()
	// Dispatches counts leases whose submit answer the coordinator read,
	// so the cancel lands on a running lease's job on every worker (a job
	// whose answer the cancel cuts off is the next test's case).
	waitUntil(t, "a running lease on every worker", func() bool {
		if c.Counters().Dispatches != int64(len(svcs)) {
			return false
		}
		for _, s := range svcs {
			jobs := s.Jobs()
			if len(jobs) != 1 || jobs[0].State != service.JobRunning {
				return false
			}
		}
		return true
	})
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Run: %v, want context.Canceled", err)
	}
	for i, s := range svcs {
		for _, j := range s.Jobs() {
			wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
			st, err := s.WaitJob(wctx, j.ID)
			wcancel()
			if err != nil || st.State != service.JobCanceled {
				t.Fatalf("worker %d job %s: %+v, %v; want %s", i, j.ID, st, err, service.JobCanceled)
			}
		}
	}
	for i := range svcs {
		servers[i].Close()
		svcs[i].Close()
	}
	waitUntil(t, "the run's goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
}

// cancelDuringSubmit forwards every request to the worker and cancels the
// run while a job submission's answer is on its way back: the worker has
// accepted the job, and the answer reaches the coordinator only if the
// cancel did not cut the submit's request off.
type cancelDuringSubmit struct{ cancel context.CancelFunc }

func (c cancelDuringSubmit) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.Method != http.MethodPost || req.URL.Path != "/v1/jobs" {
		return resp, err
	}
	c.cancel()
	if err := req.Context().Err(); err != nil {
		resp.Body.Close()
		return nil, err
	}
	return resp, nil
}

// TestCoordinatorCancelDuringSubmitLeavesNoJob: a cancel that lands on a
// job submission is the caller's, not the worker's — no death is counted —
// and the submit still reads its answer, so the job the worker accepted has
// a lease and Run's exit cancels it. A job of the same spec that another
// client submitted to the same worker is not the run's and survives.
func TestCoordinatorCancelDuringSubmitLeavesNoJob(t *testing.T) {
	s := service.New(service.Options{Workers: 1})
	ts := httptest.NewServer(service.Handler(s))
	defer func() { ts.Close(); s.Close() }()
	other, err := s.SubmitJob(service.JobRequest{Spec: []byte(slowSpec)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co := fastClient
	co.Transport = cancelDuringSubmit{cancel}
	c, err := New([]byte(slowSpec), []string{ts.URL}, Options{PollInterval: 10 * time.Millisecond, Client: co})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx); err != context.Canceled {
		t.Fatalf("Run: %v, want context.Canceled", err)
	}
	if cs := c.Counters(); cs.WorkerDeaths != 0 || cs.Dispatches != 1 {
		t.Fatalf("counters %+v, want no death and one dispatch", cs)
	}
	survived := false
	for _, j := range s.Jobs() {
		if j.ID == other.ID {
			survived = j.State == service.JobQueued || j.State == service.JobRunning
			continue
		}
		if j.State == service.JobQueued || j.State == service.JobRunning {
			t.Fatalf("job %s of the canceled campaign is still %s on the worker", j.ID, j.State)
		}
	}
	if !survived {
		t.Fatalf("the other client's job %s of the same spec did not survive the run's cancel", other.ID)
	}
}

// TestStatsHandlerServesCountersAndProgress: GET /v1/stats on the
// coordinator's handler is the JSON of Counters() and Progress().
func TestStatsHandlerServesCountersAndProgress(t *testing.T) {
	c, _ := runCoordinator(t, []byte(fleetSpec), newFleet(t, 2), Options{
		PollInterval: 10 * time.Millisecond, Client: fastClient,
	})
	w := httptest.NewRecorder()
	c.StatsHandler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "application/json; charset=utf-8" {
		t.Fatalf("GET /v1/stats: %d %q", w.Code, w.Header().Get("Content-Type"))
	}
	var got FleetStats
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want := FleetStats{Counters: c.Counters(), Progress: c.Progress()}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GET /v1/stats:\n got %+v\nwant %+v", got, want)
	}
	if want.Progress.MergedShards != want.Progress.Shards || want.Counters.Dispatches == 0 {
		t.Fatalf("stats of a finished run: %+v", want)
	}
}
