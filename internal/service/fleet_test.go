package service

// The fleet-facing service surface: shard-lease job execution (the unit a
// coordinator dispatches), the /v1/healthz JSON probe, the queue-derived
// Retry-After hint and the bounded CloseGrace drain.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"ptgsched/internal/scenario"
)

// TestJobShardExecution splits the smoke campaign into two shard-lease
// jobs and checks that (a) each job executes exactly its stride partition
// and (b) the merged streams aggregate bit-identically to a direct
// unsharded run — the invariant the fleet coordinator is built on.
func TestJobShardExecution(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()

	spec, err := scenario.ParseSpec([]byte(jobSpec))
	if err != nil {
		t.Fatal(err)
	}
	e, err := scenario.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}

	agg := e.NewAggregator()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		shard := []string{"0/2", "1/2"}[i]
		st, err := s.SubmitJob(JobRequest{Spec: json.RawMessage(jobSpec), Shard: shard})
		if err != nil {
			t.Fatal(err)
		}
		if st.Points != e.NumPoints()/2 {
			t.Fatalf("shard %s: %d points, want %d", shard, st.Points, e.NumPoints()/2)
		}
		if st.Shard != shard {
			t.Fatalf("status shard %q, want %q", st.Shard, shard)
		}
		final, err := s.WaitJob(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != JobDone || final.Completed != st.Points {
			t.Fatalf("shard %s final status %+v", shard, final)
		}
		var buf bytes.Buffer
		if err := s.JobResults(st.ID, ResultQuery{}, &buf); err != nil {
			t.Fatal(err)
		}
		set, err := e.Shard(i, 2)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		if err := scenario.ReadJSONLFunc(&buf, func(r scenario.PointResult) error {
			if !set.Contains(r.Index) {
				t.Errorf("shard %s streamed foreign point %d", shard, r.Index)
			}
			n++
			return agg.Add(r)
		}); err != nil {
			t.Fatal(err)
		}
		if n != set.Len() {
			t.Fatalf("shard %s streamed %d points, want %d", shard, n, set.Len())
		}
	}

	got, err := agg.Tables()
	if err != nil {
		t.Fatal(err)
	}
	results, err := e.Run(e.All(), scenario.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Aggregate(results)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sharded job results do not aggregate bit-identically to a direct run")
	}
}

// TestJobShardValidation rejects malformed and out-of-range selectors.
func TestJobShardValidation(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	for _, shard := range []string{"2", "a/b", "-1/2", "2/2", "0/0"} {
		if _, err := s.SubmitJob(JobRequest{Spec: json.RawMessage(jobSpec), Shard: shard}); err == nil {
			t.Errorf("shard %q accepted", shard)
		}
	}
}

// TestHealthz exercises the JSON health probe: name echoed, load visible,
// status flipping to draining after Close.
func TestHealthz(t *testing.T) {
	s := New(Options{Name: "worker-7", Workers: 3})
	h := Handler(s)

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", w.Code)
	}
	var hs Health
	if err := json.Unmarshal(w.Body.Bytes(), &hs); err != nil {
		t.Fatal(err)
	}
	if hs.Status != "ok" || hs.Name != "worker-7" || hs.Workers != 3 {
		t.Fatalf("health %+v", hs)
	}

	s.Close()
	if got := s.Health().Status; got != "draining" {
		t.Fatalf("status after Close %q, want draining", got)
	}
}

// TestRetryAfterSeconds checks the derived hint's floor and that a backlog
// with latency history raises it.
func TestRetryAfterSeconds(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	if got := s.RetryAfterSeconds(); got != 1 {
		t.Fatalf("idle hint %d, want 1", got)
	}
	// Fabricate history: 2 completed requests at 30s each, one in flight →
	// ceil(1 × 30s / 1 worker) = 30.
	s.stats.completed.Store(2)
	s.stats.busyNanos.Store(int64(60 * time.Second))
	s.stats.inFlight.Store(1)
	if got := s.RetryAfterSeconds(); got != 30 {
		t.Fatalf("loaded hint %d, want 30", got)
	}
	// A huge backlog clamps at the ceiling.
	s.stats.inFlight.Store(100)
	if got := s.RetryAfterSeconds(); got != 60 {
		t.Fatalf("clamped hint %d, want 60", got)
	}
	s.stats.inFlight.Store(0)
}

// TestCloseGrace bounds the drain: a worker stuck on an uncancellable
// request must not block shutdown forever, and the blocked request is
// reported; once it finishes, a second drain is clean.
func TestCloseGrace(t *testing.T) {
	s := New(Options{Workers: 1, NoTimeout: true})
	release := make(chan struct{})
	errc := make(chan error, 1)
	go func() { errc <- s.SubmitTestJob(context.Background(), release) }()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked the request up")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	if left := s.CloseGrace(50 * time.Millisecond); left != 1 {
		t.Fatalf("CloseGrace reported %d stuck requests, want 1", left)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("CloseGrace did not respect its deadline")
	}

	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if left := s.CloseGrace(time.Second); left != 0 {
		t.Fatalf("second CloseGrace reported %d stuck requests, want 0", left)
	}
}
