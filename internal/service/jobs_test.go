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

func submitSmokeJob(t *testing.T, s *Service, shards int) *JobStatus {
	t.Helper()
	return submitSmokeJobWorkers(t, s, shards, 0)
}

func submitSmokeJobWorkers(t *testing.T, s *Service, shards, workers int) *JobStatus {
	t.Helper()
	st, err := s.SubmitJob(JobRequest{Spec: json.RawMessage(jobSpec), Shards: shards, Workers: workers})
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

	st := submitSmokeJobWorkers(t, s, 2, workers)
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
	if len(final.Shards) != 2 || final.Shards[0].Completed != 4 || final.Shards[1].Completed != 4 {
		t.Fatalf("per-shard state %+v", final.Shards)
	}

	// The streamed results must aggregate bit-identically to a direct run.
	var buf bytes.Buffer
	if err := s.JobResults(st.ID, ResultQuery{}, &buf); err != nil {
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
		st := submitSmokeJobWorkers(t, s, 1, workers)
		h, err := s.jobs.get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		h.e.Cells[0].Config.Gen = func(*rand.Rand) *dag.Graph { panic("degenerate scenario") }
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
		again := submitSmokeJob(t, s, 1)
		if final, err := s.WaitJob(context.Background(), again.ID); err != nil || final.State != JobDone {
			t.Fatalf("workers=%d: job after the panic: %+v, %v", workers, final, err)
		}
		s.Close()
	}
}

func TestJobResultFilters(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	st := submitSmokeJob(t, s, 1)
	if _, err := s.WaitJob(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}

	count := func(q ResultQuery) int {
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
	if n := count(ResultQuery{From: 2, To: 5}); n != 3 {
		t.Errorf("range filter kept %d, want 3", n)
	}
	if n := count(ResultQuery{Family: "strassen"}); n != 8 {
		t.Errorf("family filter kept %d, want 8", n)
	}

	// Strategy projection keeps one column per record.
	var buf bytes.Buffer
	if err := s.JobResults(st.ID, ResultQuery{Strategy: "ES"}, &buf); err != nil {
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
	if err := s.JobResults(st.ID, ResultQuery{Family: "fft"}, &bytes.Buffer{}); err == nil {
		t.Error("family absent from the campaign accepted")
	}
	if err := s.JobResults(st.ID, ResultQuery{Strategy: "nope"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown strategy label accepted")
	}
	if err := s.JobResults(st.ID, ResultQuery{From: 5, To: 2}, &bytes.Buffer{}); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestJobCancelWhileQueued(t *testing.T) {
	// One worker: the first job occupies it, the second sits queued and
	// can be canceled deterministically before it ever runs.
	s := New(Options{Workers: 1})
	defer s.Close()

	j1 := submitSmokeJob(t, s, 1)
	j2 := submitSmokeJob(t, s, 1)

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

func TestJobValidation(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()

	cases := []JobRequest{
		{},                                     // no spec
		{Spec: json.RawMessage(`{"bogus":1}`)}, // unknown field
		{Spec: json.RawMessage(jobSpec), Shards: -1},
		{Spec: json.RawMessage(jobSpec), Shards: 100},       // > points
		{Spec: json.RawMessage(`{"seed":1,"reps":100000}`)}, // 2M points, over Limits.JobPoints
	}
	for i, req := range cases {
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
	body := `{"spec": ` + jobSpec + `, "shards": 2}`
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
	submitSmokeJob(t, s, 1)
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
	st := submitSmokeJob(t, s, 1)
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
