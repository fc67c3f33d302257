package service

// Regression coverage for the result-query path hardening:
//   - a malformed spool record (fewer strategy columns than its cell
//     declares) must classify, not panic the projection slice;
//   - an explicit `to=0` is the empty range, not the whole campaign, and
//     `from ≥ NumPoints` is a 400, not an empty 200;
//   - JobResults stays consistent while results are still being appended
//     concurrently, including over dynamic (+dyn[pol]) cells.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ptgsched/internal/query"
	"ptgsched/internal/scenario"
)

// TestJobResultsMalformedSpoolRecordClassifies plants a short-column
// record in a finished job's spool — the footprint of a torn or foreign
// writer — and asks for a strategy projection. The pre-fix code sliced
// r.Unfairness[k:k+1] unchecked and panicked; it must instead surface
// query.ErrMalformedRecord.
func TestJobResultsMalformedSpoolRecordClassifies(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	st := submitSmokeJob(t, s, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.WaitJob(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	// Overwrite point 3's spool entry with a record carrying a single
	// strategy column; the strassen cells declare six.
	h, err := s.jobs.get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	bad := scenario.PointResult{
		Index: 3, Cell: h.e.CellOf(3), Name: h.e.PointAt(3).Name,
		Unfairness: []float64{1}, Makespan: []float64{2}, Rel: []float64{3},
	}
	if err := h.record(bad, new([]byte)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	err = s.JobResults(st.ID, ResultQuery{Strategy: "ES"}, &buf)
	if err == nil {
		t.Fatal("JobResults streamed a projection over a malformed record without error")
	}
	if !errors.Is(err, query.ErrMalformedRecord) {
		t.Fatalf("err = %v, want query.ErrMalformedRecord", err)
	}
	// Unprojected streaming relays raw lines and is unaffected.
	buf.Reset()
	if err := s.JobResults(st.ID, ResultQuery{}, &buf); err != nil {
		t.Fatalf("unprojected JobResults: %v", err)
	}
}

// TestJobResultsExplicitEmptyRangeAndFromBeyondEnd covers the unset-vs-
// zero To distinction end to end through the HTTP layer.
func TestJobResultsExplicitEmptyRangeAndFromBeyondEnd(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	st := submitSmokeJob(t, s, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.WaitJob(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	get := func(params string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/results" + params)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	// Absent to: the whole campaign (8 points).
	if code, body := get(""); code != http.StatusOK || strings.Count(body, "\n") != 8 {
		t.Fatalf("unfiltered: status %d, %d lines", code, strings.Count(body, "\n"))
	}
	// Explicit to=0: the empty range [0,0) — 200 with an empty stream,
	// NOT the whole campaign (the pre-fix behavior).
	if code, body := get("?to=0"); code != http.StatusOK || body != "" {
		t.Fatalf("to=0: status %d, body %q — explicit empty range leaked results", code, body)
	}
	// And the same through the Go API with a literal.
	var buf bytes.Buffer
	if err := s.JobResults(st.ID, ResultQuery{To: 0, ToSet: true}, &buf); err != nil || buf.Len() != 0 {
		t.Fatalf("ResultQuery{To:0,ToSet:true}: err=%v, %d bytes", err, buf.Len())
	}
	// from at/beyond the expansion is a client error: 400, not empty 200.
	for _, p := range []string{"?from=8", "?from=9999"} {
		code, body := get(p)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d (body %q), want 400", p, code, body)
		}
		var env struct {
			Code string `json:"code"`
		}
		if err := json.Unmarshal([]byte(body), &env); err != nil || env.Code != CodeValidation {
			t.Fatalf("%s: envelope %q, want code %q", p, body, CodeValidation)
		}
	}
	// from=0 stays legal even on the empty campaign prefix.
	if code, _ := get("?from=0&to=0"); code != http.StatusOK {
		t.Fatalf("from=0&to=0: status %d, want 200", code)
	}
	// A negative to is still rejected (it must not read as "unbounded").
	if code, _ := get("?to=-1"); code != http.StatusBadRequest {
		t.Fatalf("to=-1: status %d, want 400", code)
	}
}

// dynJobSpec sweeps a rescheduling-policy axis: two +dyn[pol] cells whose
// timelines derive from the spec digest.
const dynJobSpec = `{
	"name": "dynjob", "seed": 7, "reps": 3, "nptgs": [2], "platforms": ["nancy"],
	"events": {
		"failures": [{"cluster": 0, "at": 50, "duration": 20}],
		"policies": ["restart", "checkpoint"]
	}
}`

// TestJobResultsWhileAppendingDynamicCells streams filtered results
// repeatedly while the job is still running over dynamic cells: every
// intermediate stream must be a consistent prefix-by-selection (valid
// JSONL, only matching indices, monotonically growing), and the final
// stream must equal the full selection.
func TestJobResultsWhileAppendingDynamicCells(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	st, err := s.SubmitJob(JobRequest{Spec: json.RawMessage(dynJobSpec), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}

	spec, err := scenario.ParseSpec([]byte(dynJobSpec))
	if err != nil {
		t.Fatal(err)
	}
	e, err := scenario.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Cells) != 2 || !strings.Contains(e.Cells[1].Label, "+dyn[checkpoint]") {
		t.Fatalf("expected two +dyn cells, got %v", e.Cells)
	}
	// Select the second dynamic cell by index range.
	lo, hi := e.CellRange(1)
	rq := ResultQuery{From: lo, To: hi}

	var wg sync.WaitGroup
	var streamErr error
	var mu sync.Mutex
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		seen := 0
		for {
			var buf bytes.Buffer
			if err := s.JobResults(st.ID, rq, &buf); err != nil {
				mu.Lock()
				streamErr = err
				mu.Unlock()
				return
			}
			results, err := scenario.ReadJSONL(&buf)
			if err != nil {
				mu.Lock()
				streamErr = err
				mu.Unlock()
				return
			}
			if len(results) < seen {
				mu.Lock()
				streamErr = errors.New("result stream shrank between polls")
				mu.Unlock()
				return
			}
			seen = len(results)
			for _, r := range results {
				if r.Index < lo || r.Index >= hi {
					mu.Lock()
					streamErr = errors.New("filtered stream leaked an out-of-range index")
					mu.Unlock()
					return
				}
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := s.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if streamErr != nil {
		t.Fatalf("concurrent stream: %v", streamErr)
	}
	if final.State != JobDone {
		t.Fatalf("final state %q", final.State)
	}
	var buf bytes.Buffer
	if err := s.JobResults(st.ID, rq, &buf); err != nil {
		t.Fatal(err)
	}
	results, err := scenario.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != hi-lo {
		t.Fatalf("final filtered stream has %d results, want %d", len(results), hi-lo)
	}
	for i, r := range results {
		if r.Index != lo+i {
			t.Fatalf("result %d has index %d, want %d (global point order)", i, r.Index, lo+i)
		}
	}
}
