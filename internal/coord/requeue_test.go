package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ptgsched/internal/scenario"
	"ptgsched/internal/service"
)

// scriptedWorker is a fake ptgserve answering the four job routes and the
// health probe. The n-th job submitted to it, "job-n", plays
// script[min(n, len(script)) − 1]:
//   - "rejected": its submission answers 400, as for an invalid spec;
//   - "vanish": its status is a 404, as from a worker that lost it;
//   - "canceled": it reads canceled, as if someone else canceled it;
//   - "bad": its status poll answers 400, an error no retry fixes;
//   - "results-vanish": it is done, but its results are a 404;
//   - "results-bad": it is done, but its results answer 400;
//   - "short": it is done, but its stream stops one point short;
//   - "out-of-range": it is done, and its stream holds an index past the
//     expansion;
//   - "done": it is done and streams every point of the campaign.
//
// It serves campaigns of one shard, whose records it holds.
type scriptedWorker struct {
	script  []string
	records []scenario.PointResult

	mu   sync.Mutex
	jobs int
}

func (f *scriptedWorker) act(id string) string {
	var n int
	fmt.Sscanf(id, "job-%d", &n)
	return f.script[min(n, len(f.script))-1]
}

func (f *scriptedWorker) status(id, state string) service.JobStatus {
	st := service.JobStatus{ID: id, State: state, Points: len(f.records)}
	if state == service.JobDone {
		st.Completed = st.Points
	}
	return st
}

func writeError(w http.ResponseWriter, status int, code string) {
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": "scripted " + code, "code": code})
}

func (f *scriptedWorker) serve(t *testing.T) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.jobs++
		id := fmt.Sprintf("job-%d", f.jobs)
		f.mu.Unlock()
		if f.act(id) == "rejected" {
			writeError(w, http.StatusBadRequest, "bad_request")
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(f.status(id, service.JobQueued))
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		switch f.act(id) {
		case "vanish":
			writeError(w, http.StatusNotFound, "not_found")
		case "bad":
			writeError(w, http.StatusBadRequest, "bad_request")
		case "canceled":
			json.NewEncoder(w).Encode(f.status(id, service.JobCanceled))
		default:
			json.NewEncoder(w).Encode(f.status(id, service.JobDone))
		}
	})
	mux.HandleFunc("GET /v1/jobs/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		records := f.records
		switch f.act(r.PathValue("id")) {
		case "results-vanish":
			writeError(w, http.StatusNotFound, "not_found")
			return
		case "results-bad":
			writeError(w, http.StatusBadRequest, "bad_request")
			return
		case "short":
			records = records[:len(records)-1]
		case "out-of-range":
			bad := records[0]
			bad.Index = len(f.records)
			records = []scenario.PointResult{bad}
		}
		var buf []byte
		for _, rec := range records {
			var err error
			if buf, err = scenario.AppendJSONL(buf, rec); err != nil {
				t.Error(err)
			}
		}
		w.Write(buf)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(f.status(r.PathValue("id"), service.JobCanceled))
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.Health{Status: "ok"})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestCoordinatorRequeueArms drives a one-shard campaign against a
// scripted worker through every arm of poll and merge that requeues the
// lease or fails the campaign: a job or its results vanished (404), a job
// canceled behind the coordinator's back, a stream one point short, a
// permanent error on submit, poll or fetch, and a record outside the
// expansion. A shard that recovers yields the direct run's tables; one
// that keeps failing gives up at maxShardAttempts with its cause. No arm
// counts a worker death.
func TestCoordinatorRequeueArms(t *testing.T) {
	want, e := directTables(t, []byte(fleetSpec))
	records, err := e.Run(e.All(), scenario.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	points := int64(e.NumPoints())
	for _, tc := range []struct {
		name   string
		script []string
		// err is a fragment of the campaign's error; "" for a run that
		// recovers.
		err                                   string
		dispatches, reassignments, duplicates int64
	}{
		{"job vanished, then done", []string{"vanish", "done"}, "", 2, 1, 0},
		{"job vanished every time", []string{"vanish"},
			"shard 0/1 failed 3 times, giving up: job job-3 vanished", 3, 2, 0},
		{"canceled externally, then done", []string{"canceled", "done"}, "", 2, 1, 0},
		{"canceled externally every time", []string{"canceled"},
			"shard 0/1 failed 3 times, giving up: job canceled externally", 3, 2, 0},
		{"submit answered 400", []string{"rejected"}, "rejected shard 0/1", 0, 0, 0},
		{"poll answered 400", []string{"bad"}, "coord: polling shard 0 on ", 1, 0, 0},
		{"results vanished, then done", []string{"results-vanish", "done"}, "", 2, 1, 0},
		{"results vanished every time", []string{"results-vanish"},
			"shard 0/1 failed 3 times, giving up: results of job job-3 vanished", 3, 2, 0},
		{"results answered 400", []string{"results-bad"}, "coord: fetching shard 0 results from ", 1, 0, 0},
		{"stream one point short, then done", []string{"short", "done"}, "", 2, 1, points - 1},
		{"stream short every time", []string{"short"},
			"shard 0/1 failed 3 times, giving up: done job streamed 1 points short", 3, 2, 2 * (points - 1)},
		{"index outside the expansion", []string{"out-of-range"},
			fmt.Sprintf("coord: result index %d outside expansion", points), 1, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &scriptedWorker{script: tc.script, records: records}
			c, err := New([]byte(fleetSpec), []string{f.serve(t)}, Options{
				Shards: 1, PollInterval: time.Millisecond, Client: fastClient,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			got, err := c.Run(ctx)
			switch {
			case tc.err == "" && err != nil:
				t.Fatalf("Run: %v, want the shard to recover", err)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Fatalf("Run: %v, want an error with %q", err, tc.err)
			case tc.err == "" && !reflect.DeepEqual(got, want):
				t.Fatal("the recovered shard's tables differ from the direct run")
			}
			cs := c.Counters()
			if cs.Dispatches != tc.dispatches || cs.Reassignments != tc.reassignments ||
				cs.DuplicatePoints != tc.duplicates || cs.WorkerDeaths != 0 {
				t.Fatalf("counters %+v, want %d dispatches, %d reassignments, %d duplicates and no death",
					cs, tc.dispatches, tc.reassignments, tc.duplicates)
			}
			if p := c.Progress(); tc.err == "" && (p.Points != c.NumPoints() || p.MergedPoints != p.Points) {
				t.Fatalf("progress %+v of a finished run, want %d points merged", p, c.NumPoints())
			}
		})
	}
}
