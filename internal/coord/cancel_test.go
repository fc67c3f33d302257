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
	// Dispatches counts leases whose submit answer the coordinator read:
	// a job whose answer the cancel cuts off is unknown to it.
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
