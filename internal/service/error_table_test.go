package service

// The guard for the one error table: whichever route a failure leaves
// through — a synchronous request, a job submission, a job lookup — it
// maps to the same status, the same envelope code and the same Retry-After
// decision. The routes here are built from the handler's own pieces with
// the service call stubbed to fail, so every failure can be posted through
// every route shape, including the pairs no real request produces (a
// timeout on a job route, an unknown job on a synchronous one);
// http_error_test.go drives the real conditions through the real handler.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestFailuresMapAlikeOnEveryRoute(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()

	cases := []struct {
		name   string
		err    error
		status int
		code   string
		retry  bool
	}{
		{"queue full", ErrQueueFull, http.StatusTooManyRequests, CodeQueueFull, true},
		{"closed", ErrClosed, http.StatusServiceUnavailable, CodeClosed, true},
		{"too many jobs", fmt.Errorf("%w: backlog cap is 8", ErrTooManyJobs), http.StatusTooManyRequests, CodeTooManyJobs, true},
		{"job not found", fmt.Errorf("%w: %q", ErrJobNotFound, "job-000009"), http.StatusNotFound, CodeNotFound, false},
		{"validation", s.invalid(errors.New("unknown platform")), http.StatusBadRequest, CodeValidation, false},
		{"timeout", context.DeadlineExceeded, http.StatusGatewayTimeout, CodeTimeout, false},
		{"client cancel", context.Canceled, http.StatusRequestTimeout, CodeCanceled, false},
		{"pipeline failure", errors.New("request panicked"), http.StatusInternalServerError, CodeInternal, false},
	}
	for _, tc := range cases {
		fail := tc.err
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/schedule", post(s, http.StatusOK,
			func(context.Context, ScheduleRequest) (*ScheduleResponse, error) { return nil, fail }))
		mux.HandleFunc("POST /v1/jobs", post(s, http.StatusAccepted,
			func(context.Context, JobRequest) (*JobStatus, error) { return nil, fail }))
		mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
			respond(w, s, http.StatusOK, (*JobStatus)(nil), fail)
		})
		h := normalizeErrors(mux)

		for _, route := range []struct{ method, path string }{
			{http.MethodPost, "/v1/schedule"},
			{http.MethodPost, "/v1/jobs"},
			{http.MethodGet, "/v1/jobs/job-000009"},
		} {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(route.method, route.path, strings.NewReader("{}")))
			var body errorBody
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
				t.Fatalf("%s via %s %s: body %q is not the JSON envelope: %v", tc.name, route.method, route.path, w.Body, err)
			}
			retry := w.Header().Get("Retry-After") != ""
			if w.Code != tc.status || body.Code != tc.code || retry != tc.retry || body.Error != fail.Error() {
				t.Errorf("%s via %s %s: status %d code %q retry-after %v error %q, want %d %q %v %q",
					tc.name, route.method, route.path, w.Code, body.Code, retry, body.Error,
					tc.status, tc.code, tc.retry, fail.Error())
			}
		}
	}
}

// TestSharedFailuresMapAlikeOnRealRoutes produces the three failures a
// synchronous request and a job submission can both really hit — a
// validation error, a full queue, a closed service — through the real
// handler and compares the two responses' status, code and Retry-After.
func TestSharedFailuresMapAlikeOnRealRoutes(t *testing.T) {
	const goodJob = `{"spec": {"reps": 1, "nptgs": [2], "platforms": ["lille"]}}`
	post := func(h http.Handler, path, body string) (int, string, bool) {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		var env errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatalf("POST %s: body %q is not the JSON envelope: %v", path, w.Body, err)
		}
		return w.Code, env.Code, w.Header().Get("Retry-After") != ""
	}
	check := func(name string, h http.Handler, syncBody, jobBody string, status int, code string, retry bool) {
		t.Helper()
		for _, r := range []struct{ path, body string }{{"/v1/schedule", syncBody}, {"/v1/jobs", jobBody}} {
			if gs, gc, gr := post(h, r.path, r.body); gs != status || gc != code || gr != retry {
				t.Errorf("%s via %s: status %d code %q retry-after %v, want %d %q %v", name, r.path, gs, gc, gr, status, code, retry)
			}
		}
	}

	s := New(Options{Workers: 1, QueueDepth: 1})
	h := Handler(s)
	check("validation", h, `{"platform": "mars"}`, `{}`, http.StatusBadRequest, CodeValidation, false)

	// One blocking request on the worker, one in the queue's only slot.
	release := make(chan struct{})
	done := make(chan error, 2)
	for i, want := range []func(Stats) bool{
		func(st Stats) bool { return st.InFlight == 1 },
		func(st Stats) bool { return st.InFlight == 1 && st.Queued == 1 },
	} {
		go func() { done <- s.SubmitTestJob(context.Background(), release) }()
		for deadline := time.Now().Add(5 * time.Second); !want(s.Stats()); time.Sleep(time.Millisecond) {
			if len(done) > 0 || time.Now().After(deadline) {
				t.Fatalf("blocking request %d never parked; stats: %+v", i, s.Stats())
			}
		}
	}
	check("queue full", h, `{}`, goodJob, http.StatusTooManyRequests, CodeQueueFull, true)
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}

	s.Close()
	check("closed", h, `{}`, goodJob, http.StatusServiceUnavailable, CodeClosed, true)
}
