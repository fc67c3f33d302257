package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ptgsched/internal/dag"
	"ptgsched/internal/query"
	"ptgsched/internal/scenario"
)

const jobSpec = `{
	"name": "jobsmoke",
	"seed": 9,
	"reps": 2,
	"nptgs": [2, 3],
	"platforms": ["lille", "rennes"],
	"families": [{"family": "strassen"}]
}`

func submitSmokeJob(t *testing.T, s *Service, workers int) *JobStatus {
	t.Helper()
	st, err := s.SubmitJob(JobRequest{Spec: json.RawMessage(jobSpec), Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestJobRoundTrip(t *testing.T) {
	for _, workers := range []int{1, 4} {
		testJobRoundTrip(t, workers)
	}
}

func testJobRoundTrip(t *testing.T, workers int) {
	s := New(Options{Workers: 2})
	defer s.Close()

	st := submitSmokeJob(t, s, workers)
	if st.ID == "" || st.Points != 8 {
		t.Fatalf("initial status %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := s.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobDone || final.Completed != 8 {
		t.Fatalf("final status %+v", final)
	}

	// The streamed results must aggregate bit-identically to a direct run.
	var buf bytes.Buffer
	if err := s.JobResults(st.ID, query.Query{To: query.NoLimit}, &buf); err != nil {
		t.Fatal(err)
	}
	spooled := append([]byte(nil), buf.Bytes()...)
	results, err := scenario.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("%d streamed results, want 8", len(results))
	}
	spec, _ := scenario.ParseSpec([]byte(jobSpec))
	e, _ := scenario.Expand(spec)
	// The spooled lines are relayed byte for byte, in point order: each
	// must be json.Marshal of what a scratch-less, memo-less RunPoint
	// computes, however many sweep workers filled the spool.
	var wantLines bytes.Buffer
	for i := 0; i < e.NumPoints(); i++ {
		line, err := json.Marshal(e.RunPoint(e.PointAt(i)))
		if err != nil {
			t.Fatal(err)
		}
		wantLines.Write(line)
		wantLines.WriteByte('\n')
	}
	if !bytes.Equal(spooled, wantLines.Bytes()) {
		t.Fatalf("workers=%d: spooled lines differ from json.Marshal(RunPoint)", workers)
	}
	direct, err := e.Run(e.All(), scenario.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Aggregate(direct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Aggregate(results)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want[0].Result.Points {
		w, g := want[0].Result.Points[i], got[0].Result.Points[i]
		for sIdx := range w.Unfairness {
			if w.Unfairness[sIdx] != g.Unfairness[sIdx] || w.RelMakespan[sIdx] != g.RelMakespan[sIdx] {
				t.Fatalf("row %d strategy %d: job aggregate differs from direct run", i, sIdx)
			}
		}
	}

	if list := s.Jobs(); len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("Jobs() = %+v", list)
	}
}

// A point whose generator panics fails its job, naming the point — inline
// or on the sweep pool's goroutines — and the service keeps serving.
func TestJobPanickingPointFailsOnlyItsJob(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := New(Options{Workers: 1})
		// Hold the only service worker so the job sits queued while its
		// expansion is given a generator no JSON spec can ask for.
		release := make(chan struct{})
		held := make(chan error, 1)
		go func() { held <- s.SubmitTestJob(context.Background(), release) }()
		for s.Stats().InFlight == 0 {
			time.Sleep(time.Millisecond)
		}
		st := submitSmokeJob(t, s, workers)
		h, err := s.jobs.get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		h.e.Cells[0].Config.Gen = func(*dag.Graph, *rand.Rand) { panic("degenerate scenario") }
		close(release)
		if err := <-held; err != nil {
			t.Fatal(err)
		}

		final, err := s.WaitJob(context.Background(), st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != JobFailed || !strings.Contains(final.Error, "panicked") {
			t.Fatalf("workers=%d: final status %+v, want a failed job with a panic conversion", workers, final)
		}
		if workers == 1 && !strings.Contains(final.Error, "point 0 panicked") {
			t.Fatalf("inline job error %q does not name point 0", final.Error)
		}
		again := submitSmokeJob(t, s, 0)
		if final, err := s.WaitJob(context.Background(), again.ID); err != nil || final.State != JobDone {
			t.Fatalf("workers=%d: job after the panic: %+v, %v", workers, final, err)
		}
		s.Close()
	}
}

func TestJobResultFilters(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	st := submitSmokeJob(t, s, 0)
	if _, err := s.WaitJob(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}

	count := func(q query.Query) int {
		var buf bytes.Buffer
		if err := s.JobResults(st.ID, q, &buf); err != nil {
			t.Fatal(err)
		}
		n := 0
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			n++
		}
		return n
	}
	if n := count(query.Query{From: 2, To: 5}); n != 3 {
		t.Errorf("range filter kept %d, want 3", n)
	}
	if n := count(query.Query{Family: "strassen", To: query.NoLimit}); n != 8 {
		t.Errorf("family filter kept %d, want 8", n)
	}

	// Strategy projection keeps one column per record.
	var buf bytes.Buffer
	if err := s.JobResults(st.ID, query.Query{Strategy: "ES", To: query.NoLimit}, &buf); err != nil {
		t.Fatal(err)
	}
	results, err := scenario.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("%d projected results, want 8", len(results))
	}
	for _, r := range results {
		if len(r.Makespan) != 1 || len(r.Unfairness) != 1 || len(r.Rel) != 1 {
			t.Fatalf("projection left %d columns: %+v", len(r.Makespan), r)
		}
	}

	// Unknown filter values are validation errors.
	if err := s.JobResults(st.ID, query.Query{Family: "fft", To: query.NoLimit}, &bytes.Buffer{}); err == nil {
		t.Error("family absent from the campaign accepted")
	}
	if err := s.JobResults(st.ID, query.Query{Strategy: "nope", To: query.NoLimit}, &bytes.Buffer{}); err == nil {
		t.Error("unknown strategy label accepted")
	}
	if err := s.JobResults(st.ID, query.Query{From: 5, To: 2}, &bytes.Buffer{}); err == nil {
		t.Error("inverted range accepted")
	}
	var ve *ValidationError
	if err := s.JobResults(st.ID, query.Query{To: query.NoLimit - 1}, &bytes.Buffer{}); !errors.As(err, &ve) {
		t.Errorf("To below NoLimit: %v, want a validation error", err)
	}
}

func TestJobCancelWhileQueued(t *testing.T) {
	// One worker: the first job occupies it, the second sits queued and
	// can be canceled deterministically before it ever runs.
	s := New(Options{Workers: 1})
	defer s.Close()

	j1 := submitSmokeJob(t, s, 0)
	j2 := submitSmokeJob(t, s, 0)

	st, err := s.CancelJob(j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobCanceled {
		t.Fatalf("canceled-from-queue state %q", st.State)
	}
	if _, err := s.JobStatusByID(j2.ID); err == nil {
		t.Error("canceled job still in registry")
	}
	if _, err := s.WaitJob(context.Background(), j1.ID); err != nil {
		t.Fatal(err)
	}
}

// invalidJobRequests are refused by JobRequest.resolve; they also seed
// FuzzAdmission.
var invalidJobRequests = []JobRequest{
	{},                                     // no spec
	{Spec: json.RawMessage(`{"bogus":1}`)}, // unknown field
	{Spec: json.RawMessage(`{"seed":1,"reps":100000}`)},                 // 2M points, over MaxJobPoints
	{Spec: json.RawMessage(`{"seed":1,"reps":100000}`), Shard: "0/100"}, // the cap bounds the expansion, not the shard
	{Spec: json.RawMessage(jobSpec), Shard: "9/4"},                      // shard out of range
	{Spec: json.RawMessage(jobSpec), Shard: "0/2junk"},                  // trailing garbage
	// one point whose graphs are over MaxCampaignTasks
	{Spec: json.RawMessage(`{"reps":1,"nptgs":[2],"platforms":["lille"],"families":[{"family":"random","tasks":[200000]}]}`)},
}

func TestJobValidation(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()

	for i, req := range invalidJobRequests {
		if _, err := s.SubmitJob(req); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := s.JobStatusByID("job-999999"); err == nil {
		t.Error("unknown id accepted")
	}
	if _, err := s.CancelJob("job-999999"); err == nil {
		t.Error("unknown id canceled")
	}
}

func TestJobHTTPRoundTrip(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	// Submit.
	body := `{"spec": ` + jobSpec + `, "workers": 2}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Poll until done.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State == JobDone {
			break
		}
		if st.State == JobFailed || time.Now().After(deadline) {
			t.Fatalf("job did not complete: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Completed != 8 {
		t.Fatalf("completed %d, want 8", st.Completed)
	}

	// Stream filtered results.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/results?strategy=ES&from=0&to=4")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Errorf("results content type %q", ct)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d result lines, want 4:\n%s", len(lines), b)
	}

	// List, then delete.
	resp, err = http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 {
		t.Fatalf("job list %+v", list)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}

	// Unknown ids are 404 with the JSON envelope.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted job GET = %d", resp.StatusCode)
	}
	var envelope struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Code != CodeNotFound {
		t.Fatalf("error code %q, want %q", envelope.Code, CodeNotFound)
	}
}

func TestJobQueueFullRefusesSubmission(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	defer s.Close()

	// One running, one queued: the queue is now full.
	submitSmokeJob(t, s, 0)
	waitForQueueFull := func() bool {
		for i := 0; i < 100; i++ {
			if _, err := s.SubmitJob(JobRequest{Spec: json.RawMessage(jobSpec)}); err == nil {
				continue // consumed a slot that freed up; try again
			} else {
				return errors.Is(err, ErrQueueFull)
			}
		}
		return false
	}
	if !waitForQueueFull() {
		t.Skip("jobs drained faster than submissions; nothing to assert")
	}
	if got := s.Stats().Rejected; got == 0 {
		t.Error("rejected counter not incremented")
	}
}

func TestJobStatsKind(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	st := submitSmokeJob(t, s, 0)
	if _, err := s.WaitJob(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().CompletedByKind["job"]; got != 1 {
		t.Errorf("job kind completed = %d, want 1", got)
	}
}

func TestCloseCancelsRunningJobs(t *testing.T) {
	s := New(Options{Workers: 1})
	// A long job: 600 cheap points on one worker.
	spec := `{"name":"long","seed":1,"reps":300,"nptgs":[2],"platforms":["lille"],"families":[{"family":"strassen"}]}`
	if _, err := s.SubmitJob(JobRequest{Spec: json.RawMessage(spec)}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not drain with a running job")
	}
}

// Job ids are padded to six digits, so from the millionth job on they stop
// sorting as strings: "job-1000000" < "job-999999". The registry orders
// jobs by admission instead — the oldest terminal job is the one evicted,
// and list returns jobs oldest first — across that boundary.
func TestJobRegistryOrdersPastAMillionJobs(t *testing.T) {
	reg := &jobRegistry{seq: 999_998}
	var ids []string
	add := func() string {
		t.Helper()
		id, err := reg.add(&jobHandle{state: JobDone, done: make(chan struct{})})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		return id
	}
	for len(ids) < MaxJobs {
		add()
	}
	if ids[0] != "job-999999" || ids[1] != "job-1000000" {
		t.Fatalf("first ids %s, %s: the registry does not cross the boundary", ids[0], ids[1])
	}
	for k := 0; k < 3; k++ {
		id := add()
		if _, ok := reg.byID[ids[k]]; ok {
			t.Fatalf("admitting %s kept %s, the oldest terminal job", id, ids[k])
		}
		if _, ok := reg.byID[ids[k+1]]; !ok {
			t.Fatalf("admitting %s evicted %s, a newer job than %s", id, ids[k+1], ids[k])
		}
	}
	hs := reg.list()
	if len(hs) != MaxJobs {
		t.Fatalf("%d jobs listed, want %d", len(hs), MaxJobs)
	}
	for i, h := range hs {
		if want := ids[3+i]; h.id != want {
			t.Fatalf("list()[%d] = %s, want %s (admission order)", i, h.id, want)
		}
	}
}
