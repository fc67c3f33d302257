package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ptgsched/internal/faultinject"
	"ptgsched/internal/scenario"
	"ptgsched/internal/service"
)

const fleetSpec = `{
	"name": "fleetsmoke",
	"seed": 9,
	"reps": 2,
	"nptgs": [2, 3],
	"platforms": ["lille", "rennes"],
	"families": [{"family": "strassen"}]
}`

// fastClient keeps retry loops snappy for tests that sleep for real: it
// waits 1/200 of every backoff the client asks for (1ms for the 200ms
// base, 25ms for the 5s cap).
var fastClient = ClientOptions{Sleep: func(ctx context.Context, d time.Duration) error {
	select {
	case <-time.After(d / 200):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}}

// hostRoutes is the fleet's one fault-injection transport: it sends each
// request through the fault transport of the worker it is addressed to,
// by request host; workers without one pass.
type hostRoutes map[string]http.RoundTripper

func (r hostRoutes) RoundTrip(req *http.Request) (*http.Response, error) {
	if t, ok := r[req.URL.Host]; ok {
		return t.RoundTrip(req)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// withFaults is fastClient with per-worker fault plans, keyed by worker
// URL.
func withFaults(t *testing.T, plans map[string]faultinject.Plan) ClientOptions {
	t.Helper()
	routes := hostRoutes{}
	for addr, plan := range plans {
		u, err := url.Parse(addr)
		if err != nil {
			t.Fatal(err)
		}
		routes[u.Host] = &faultinject.Transport{Plan: plan}
	}
	co := fastClient
	co.Transport = routes
	return co
}

// newFleet starts n in-process ptgserve workers and returns their URLs.
func newFleet(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		s := service.New(service.Options{Workers: 2})
		ts := httptest.NewServer(service.Handler(s))
		t.Cleanup(func() { ts.Close(); s.Close() })
		urls[i] = ts.URL
	}
	return urls
}

// directTables runs the campaign unsharded in-process — the golden the
// coordinator must reproduce bit-identically.
func directTables(t *testing.T, specJSON []byte) ([]scenario.Table, *scenario.Expansion) {
	t.Helper()
	spec, err := scenario.ParseSpec(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	e, err := scenario.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	results, err := e.Run(e.All(), scenario.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Aggregate(results)
	if err != nil {
		t.Fatal(err)
	}
	return tables, e
}

func runCoordinator(t *testing.T, specJSON []byte, workers []string, opts Options) (*Coordinator, []scenario.Table) {
	t.Helper()
	c, err := New(specJSON, workers, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	tables, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("coordinated run failed: %v", err)
	}
	return c, tables
}

// TestCoordinatorHappyPath fans a campaign out over three healthy workers
// and requires the merged tables bit-identical to an unsharded run.
func TestCoordinatorHappyPath(t *testing.T) {
	want, e := directTables(t, []byte(fleetSpec))
	c, got := runCoordinator(t, []byte(fleetSpec), newFleet(t, 3), Options{
		PollInterval: 10 * time.Millisecond, Client: fastClient,
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("coordinated tables differ from the direct run")
	}
	cs := c.Counters()
	if cs.Dispatches != 3 || cs.WorkerDeaths != 0 || cs.Reassignments != 0 {
		t.Fatalf("counters %+v, want 3 clean dispatches", cs)
	}
	if cs.MergedPoints != int64(e.NumPoints()) || cs.DuplicatePoints != 0 {
		t.Fatalf("counters %+v, want %d unique merged points", cs, e.NumPoints())
	}
	p := c.Progress()
	if p.MergedShards != 3 || p.MergedPoints != e.NumPoints() {
		t.Fatalf("progress %+v", p)
	}
}

// dieDuringResults passes everything until the first results fetch, which
// it severs after `severAt` bytes; every request after that drops — a
// worker whose machine dies while streaming its shard home.
type dieDuringResults struct {
	mu      sync.Mutex
	severAt int64
	dead    bool
}

func (p *dieDuringResults) Next(req *http.Request) faultinject.Action {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return faultinject.Action{Kind: faultinject.Drop}
	}
	if strings.HasSuffix(req.URL.Path, "/results") {
		p.dead = true
		return faultinject.Action{Kind: faultinject.Sever, After: p.severAt}
	}
	return faultinject.Action{Kind: faultinject.Pass}
}

// TestCoordinatorDeadWorkerReassignment kills worker 0 mid-results-stream
// (deterministically, via the fault plan) and requires the campaign to
// finish bit-identically anyway: the severed shard is reassigned, re-run,
// and the half-delivered points deduplicated rather than double-counted.
func TestCoordinatorDeadWorkerReassignment(t *testing.T) {
	want, e := directTables(t, []byte(fleetSpec))

	// Size the cut so at least one full JSONL line lands before the wire
	// goes quiet: sever at (shard 0's serialized size − 10 bytes).
	set, err := e.Shard(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	shard0, err := e.Run(set, scenario.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := scenario.WriteJSONL(&buf, shard0); err != nil {
		t.Fatal(err)
	}
	plan := &dieDuringResults{severAt: int64(buf.Len()) - 10}

	// Only worker 0 — the first dispatch target, which deterministically
	// gets shard 0 — carries the fault plan; the others stay healthy.
	workers := newFleet(t, 3)
	c, got := runCoordinator(t, []byte(fleetSpec), workers, Options{
		PollInterval: 10 * time.Millisecond,
		Client:       withFaults(t, map[string]faultinject.Plan{workers[0]: plan}),
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("tables after mid-stream worker death differ from the direct run")
	}
	cs := c.Counters()
	if cs.WorkerDeaths == 0 || cs.Reassignments == 0 {
		t.Fatalf("counters %+v, want a worker death and a reassignment", cs)
	}
	if cs.DuplicatePoints == 0 {
		t.Fatalf("counters %+v, want deduplicated re-delivered points", cs)
	}
	if cs.MergedPoints != int64(e.NumPoints()) {
		t.Fatalf("counters %+v, want %d unique merged points", cs, e.NumPoints())
	}
}

// wedgedWorker is a fake ptgserve that accepts a job and then never makes
// progress — the stall the coordinator must detect and route around.
func wedgedWorker(t *testing.T) string {
	t.Helper()
	mux := http.NewServeMux()
	status := service.JobStatus{ID: "wedge-1", State: service.JobRunning, Points: 4}
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(status)
	})
	mux.HandleFunc("GET /v1/jobs/wedge-1", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(status)
	})
	mux.HandleFunc("DELETE /v1/jobs/wedge-1", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"state": service.JobCanceled})
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.Health{Status: "ok"})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestCoordinatorStalledLease detects a worker that accepts a lease and
// then sits on it, cancels the wedged job, and re-runs the shard on the
// healthy worker — without declaring the stalled worker dead.
func TestCoordinatorStalledLease(t *testing.T) {
	want, e := directTables(t, []byte(fleetSpec))
	workers := []string{wedgedWorker(t), newFleet(t, 1)[0]}
	c, got := runCoordinator(t, []byte(fleetSpec), workers, Options{
		PollInterval: 10 * time.Millisecond,
		StallTimeout: 2 * time.Second,
		Client:       fastClient,
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("tables after a stalled lease differ from the direct run")
	}
	cs := c.Counters()
	if cs.Reassignments == 0 {
		t.Fatalf("counters %+v, want the stalled lease reassigned", cs)
	}
	if cs.WorkerDeaths != 0 {
		t.Fatalf("counters %+v: a stalled worker was declared dead", cs)
	}
	if cs.MergedPoints != int64(e.NumPoints()) {
		t.Fatalf("counters %+v, want %d merged points", cs, e.NumPoints())
	}
}

// failingWorker is a fake ptgserve that accepts every job and then reports
// it failed — a poisoned shard, as far as the coordinator can tell.
func failingWorker(t *testing.T) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.JobStatus{ID: "poison-1", State: service.JobQueued, Points: 4})
	})
	mux.HandleFunc("GET /v1/jobs/poison-1", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.JobStatus{ID: "poison-1", State: service.JobFailed, Points: 4, Error: "point 0 panicked"})
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.Health{Status: "ok"})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestCoordinatorGivesUpOnFailingShard: a shard whose job fails on every
// dispatch is retried until it has failed maxShardAttempts times, then
// fails the campaign instead of cycling forever.
func TestCoordinatorGivesUpOnFailingShard(t *testing.T) {
	c, err := New([]byte(fleetSpec), []string{failingWorker(t)}, Options{
		PollInterval: time.Millisecond,
		Client:       fastClient,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := c.Run(ctx); err == nil || !strings.Contains(err.Error(), "failed 3 times, giving up") {
		t.Fatalf("err = %v, want the shard given up after 3 failures", err)
	}
	if cs := c.Counters(); cs.Dispatches != 3 || cs.Reassignments != 2 {
		t.Fatalf("counters %+v, want 3 dispatches and 2 reassignments", cs)
	}
}

// TestCoordinatorFullyPartitioned requires a fleet with every worker
// unreachable to fail fast with a clear verdict — never hang.
func TestCoordinatorFullyPartitioned(t *testing.T) {
	workers := newFleet(t, 3)
	plans := map[string]faultinject.Plan{}
	for _, w := range workers {
		plans[w] = faultinject.NewScript().Then(faultinject.Action{Kind: faultinject.Drop})
	}
	opts := Options{
		PollInterval: 10 * time.Millisecond,
		Client:       withFaults(t, plans),
	}
	c, err := New([]byte(fleetSpec), workers, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err = c.Run(ctx)
	if err == nil {
		t.Fatal("fully-partitioned campaign reported success")
	}
	if !strings.Contains(err.Error(), "fully partitioned") {
		t.Fatalf("error %q does not name the partition", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("partition verdict took %v — too close to a hang", time.Since(start))
	}
	if cs := c.Counters(); cs.WorkerDeaths != 3 {
		t.Fatalf("counters %+v, want all 3 workers declared dead", cs)
	}
}

// TestCoordinatorSeededChaos soaks the fleet in deterministic random
// faults (drops, delays, 503s on every path) and still requires exact
// results. Same seeds, same schedule, same outcome — re-runnable forever.
func TestCoordinatorSeededChaos(t *testing.T) {
	want, e := directTables(t, []byte(fleetSpec))
	workers := newFleet(t, 3)
	plans := map[string]faultinject.Plan{}
	for i, w := range workers {
		plans[w] = faultinject.NewSeeded(int64(i+1), 0.10, 0.20, 0.20)
	}
	c, got := runCoordinator(t, []byte(fleetSpec), workers, Options{
		PollInterval: 10 * time.Millisecond,
		Client:       withFaults(t, plans),
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("tables under seeded chaos differ from the direct run")
	}
	if cs := c.Counters(); cs.MergedPoints != int64(e.NumPoints()) {
		t.Fatalf("counters %+v, want %d merged points", cs, e.NumPoints())
	}
}

// TestCoordinatorContextCancel propagates the caller's cancellation.
func TestCoordinatorContextCancel(t *testing.T) {
	c, err := New([]byte(fleetSpec), newFleet(t, 1), Options{Client: fastClient})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx); err != context.Canceled {
		t.Fatalf("err %v, want context.Canceled", err)
	}
}

// TestCoordinatorRejectsBadInput covers the fatal validation paths.
func TestCoordinatorRejectsBadInput(t *testing.T) {
	if _, err := New([]byte(fleetSpec), nil, Options{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := New([]byte(`{"name": 7}`), []string{"x:1"}, Options{}); err == nil {
		t.Fatal("malformed spec accepted")
	}
}

// dieHoldingLease passes everything until the worker has been granted a
// lease: its first request about a job (the coordinator polls only a job
// it submitted, and merges it only after a poll) drops, and so does every
// request after it — a host that dies while its lease is running, whatever
// the timing of the job.
type dieHoldingLease struct {
	mu   sync.Mutex
	dead bool
}

func (p *dieHoldingLease) Next(req *http.Request) faultinject.Action {
	p.mu.Lock()
	defer p.mu.Unlock()
	if strings.HasPrefix(req.URL.Path, "/v1/jobs/") {
		p.dead = true
	}
	if p.dead {
		return faultinject.Action{Kind: faultinject.Drop}
	}
	return faultinject.Action{Kind: faultinject.Pass}
}

// TestCoordinatorFig3Acceptance is the paper-scale end: the checked-in
// Figure 3 campaign over three workers, one killed mid-campaign, must
// come out bit-identical to the unsharded golden. ~100 scheduling runs
// per point; skipped under -short like the scenario acceptance test.
func TestCoordinatorFig3Acceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale campaign: skipped under -short")
	}
	specJSON, err := os.ReadFile(filepath.Join("..", "..", "examples", "campaign.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, e := directTables(t, specJSON)

	// Worker 0's host dies while it holds a lease.
	workers := newFleet(t, 3)
	c, got := runCoordinator(t, specJSON, workers, Options{
		Shards:       6,
		PollInterval: 50 * time.Millisecond,
		Client:       withFaults(t, map[string]faultinject.Plan{workers[0]: new(dieHoldingLease)}),
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("coordinated Figure 3 tables differ from the unsharded golden")
	}
	cs := c.Counters()
	if cs.WorkerDeaths != 1 || cs.Reassignments == 0 {
		t.Fatalf("counters %+v, want the killed worker's lease reassigned", cs)
	}
	if cs.MergedPoints != int64(e.NumPoints()) {
		t.Fatalf("counters %+v, want %d merged points", cs, e.NumPoints())
	}
}
