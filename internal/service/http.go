package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"ptgsched/internal/query"
)

// Handler exposes a Service over HTTP+JSON, the wire surface of the
// ptgserve command:
//
//	POST /v1/schedule  — ScheduleRequest  → ScheduleResponse
//	POST /v1/online    — OnlineRequest    → OnlineResponse
//	POST /v1/workload  — WorkloadRequest  → WorkloadResponse
//	POST /v1/campaign  — CampaignRequest  → CampaignResponse (synchronous)
//	POST   /v1/jobs               — JobRequest → JobStatus (202, asynchronous)
//	GET    /v1/jobs               — every job's JobStatus
//	GET    /v1/jobs/{id}          — one job's progress snapshot
//	GET    /v1/jobs/{id}/results  — completed results as JSONL; query
//	                                filters: family, strategy, from, to
//	DELETE /v1/jobs/{id}          — cancel via context and forget
//	GET  /v1/stats     — Stats snapshot as JSON
//	GET  /v1/healthz   — Health snapshot as JSON (status, name, load)
//	GET  /metrics      — the same counters in Prometheus text format
//	GET  /healthz      — plain-text liveness probe
//
// Error mapping: validation failures → 400, a full queue (or job registry)
// → 429 with a Retry-After hint derived from the live queue depth, a
// request timeout → 504, a closed service
// → 503, an unknown job id → 404, and a pipeline failure → 500. Every
// error — including the mux's own 404/405 responses — carries the same
// JSON envelope {"error": ..., "code": ...} with a stable machine-readable
// code; clients never see plain-text error bodies. The handler is safe for
// concurrent use, like the Service beneath it.
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/schedule", post(s, http.StatusOK, s.Schedule))
	mux.HandleFunc("POST /v1/online", post(s, http.StatusOK, s.Online))
	mux.HandleFunc("POST /v1/workload", post(s, http.StatusOK, s.Workload))
	mux.HandleFunc("POST /v1/campaign", post(s, http.StatusOK, s.Campaign))
	mux.HandleFunc("POST /v1/jobs", post(s, http.StatusAccepted, func(_ context.Context, req JobRequest) (*JobStatus, error) {
		return s.SubmitJob(req)
	}))
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Jobs []*JobStatus `json:"jobs"`
		}{Jobs: s.Jobs()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.JobStatusByID(r.PathValue("id"))
		respond(w, s, http.StatusOK, st, err)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		q, err := parseResultQuery(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeValidation, err)
			return
		}
		id := r.PathValue("id")
		// Look the job up before committing to a streaming response, so
		// an unknown id still gets a clean 404 envelope.
		if _, err := s.JobStatusByID(id); err != nil {
			fail(w, s, err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
		cw := &countingWriter{w: w}
		if err := s.JobResults(id, q, cw); err != nil {
			if cw.n == 0 {
				// Validation failed before any line went out; the JSON
				// envelope replaces the (unsent) stream.
				fail(w, s, err)
			}
			// A mid-stream write failure means the client went away; the
			// response is already committed, nothing useful to add.
		}
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.CancelJob(r.PathValue("id"))
		respond(w, s, http.StatusOK, st, err)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeMetrics(w, s.Stats())
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Health())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return normalizeErrors(mux)
}

// Error codes of the JSON error envelope, stable across releases.
const (
	CodeBadRequest       = "bad_request"
	CodeValidation       = "validation"
	CodeQueueFull        = "queue_full"
	CodeClosed           = "closed"
	CodeTimeout          = "timeout"
	CodeCanceled         = "canceled"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeTooManyJobs      = "too_many_jobs"
	CodeInternal         = "internal"
)

// countingWriter tracks whether any stream bytes were written, so the
// results handler can tell a pre-stream validation failure (error envelope
// still possible) from a mid-stream one (response already committed).
type countingWriter struct {
	w http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n += int64(n)
	return n, err
}

// parseResultQuery reads the results endpoint's filter parameters. An
// absent to means the end of the expansion (query.NoLimit); an explicit
// one — to=0, the empty range, included — is a real bound, so a negative
// to is refused rather than read as "unbounded".
func parseResultQuery(r *http.Request) (query.Query, error) {
	q := query.Query{
		Family:   r.URL.Query().Get("family"),
		Strategy: r.URL.Query().Get("strategy"),
		To:       query.NoLimit,
	}
	var err error
	if v := r.URL.Query().Get("from"); v != "" {
		if q.From, err = strconv.Atoi(v); err != nil {
			return q, fmt.Errorf("invalid from=%q: %w", v, err)
		}
	}
	if v := r.URL.Query().Get("to"); v != "" {
		if q.To, err = strconv.Atoi(v); err != nil {
			return q, fmt.Errorf("invalid to=%q: %w", v, err)
		}
		if q.To < 0 {
			return q, fmt.Errorf("service: result range [%d,%d) is invalid", q.From, q.To)
		}
	}
	return q, nil
}

// maxBodyBytes bounds a request body (1 MiB): the largest legitimate
// payload is a campaign spec, and even a maximal one is a few KB.
const maxBodyBytes = 1 << 20

// decode parses the JSON body into req, rejecting unknown fields so typos
// in request payloads fail loudly instead of silently using defaults, and
// bounding the body size so a hostile payload cannot balloon server memory.
func decode(w http.ResponseWriter, r *http.Request, req any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("invalid request body: %w", err))
		return false
	}
	return true
}

// post is the route of every JSON-in, JSON-out endpoint: decode the body
// into a Req, run it against the service, respond.
func post[Req, Resp any](s *Service, ok int, run func(context.Context, Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !decode(w, r, &req) {
			return
		}
		resp, err := run(r.Context(), req)
		respond(w, s, ok, resp, err)
	}
}

// errorStatus is the one table from a service error to its HTTP status and
// envelope code; throttled marks the responses (429/503) that carry a
// Retry-After hint.
func errorStatus(err error) (status int, code string, throttled bool) {
	switch {
	case errors.Is(err, ErrJobNotFound):
		return http.StatusNotFound, CodeNotFound, false
	case errors.Is(err, ErrTooManyJobs):
		return http.StatusTooManyRequests, CodeTooManyJobs, true
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, CodeQueueFull, true
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, CodeClosed, true
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, CodeTimeout, false
	case errors.Is(err, context.Canceled):
		// The client went away; the status is moot but 499-style
		// semantics map best onto 408 here.
		return http.StatusRequestTimeout, CodeCanceled, false
	case errors.As(err, new(*ValidationError)):
		return http.StatusBadRequest, CodeValidation, false
	}
	return http.StatusInternalServerError, CodeInternal, false
}

// respond writes a request's outcome: v under the ok status, or the
// failure.
func respond(w http.ResponseWriter, s *Service, ok int, v any, err error) {
	if err != nil {
		fail(w, s, err)
		return
	}
	writeJSON(w, ok, v)
}

// fail writes err as the JSON envelope under errorStatus's mapping.
// Throttled responses carry a Retry-After hint derived from the live queue
// depth (Service.RetryAfterSeconds), so a backing-off client waits about
// as long as the backlog will actually take to drain.
func fail(w http.ResponseWriter, s *Service, err error) {
	status, code, throttled := errorStatus(err)
	if throttled {
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterSeconds()))
	}
	writeError(w, status, code, err)
}

// errorBody is the JSON error envelope every failing response carries:
// the human-readable message plus a stable machine-readable code.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorBody{Error: err.Error(), Code: code})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// normalizeErrors wraps a handler so error responses it writes as plain
// text — the mux's own 404 and 405 replies, or any stray http.Error — are
// rewritten into the JSON error envelope. Responses that already carry a
// JSON body (ours) pass through untouched.
func normalizeErrors(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&errorRewriter{ResponseWriter: w}, r)
	})
}

// errorRewriter intercepts WriteHeader: a ≥ 400 status about to go out
// with a non-JSON content type is replaced by the JSON envelope, and the
// original plain-text body is swallowed.
type errorRewriter struct {
	http.ResponseWriter
	rewrote     bool
	wroteHeader bool
}

func (w *errorRewriter) WriteHeader(status int) {
	if w.wroteHeader {
		w.ResponseWriter.WriteHeader(status)
		return
	}
	w.wroteHeader = true
	ct := w.Header().Get("Content-Type")
	if status < 400 || strings.HasPrefix(ct, "application/json") {
		w.ResponseWriter.WriteHeader(status)
		return
	}
	w.rewrote = true
	code := CodeInternal
	switch status {
	case http.StatusNotFound:
		code = CodeNotFound
	case http.StatusMethodNotAllowed:
		code = CodeMethodNotAllowed
	case http.StatusBadRequest:
		code = CodeBadRequest
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Del("X-Content-Type-Options")
	w.ResponseWriter.WriteHeader(status)
	body, _ := json.MarshalIndent(errorBody{Error: http.StatusText(status), Code: code}, "", "  ")
	w.ResponseWriter.Write(append(body, '\n'))
}

// Write swallows the plain-text body of a rewritten error; everything else
// streams through (an implicit 200 header is written first, as usual).
func (w *errorRewriter) Write(b []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if w.rewrote {
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}

// writeMetrics renders the stats snapshot in Prometheus text exposition
// format, counter names prefixed ptgserve_.
func writeMetrics(w http.ResponseWriter, st Stats) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	type metric struct {
		name, help string
		value      float64
	}
	ms := []metric{
		{"ptgserve_requests_accepted_total", "Requests that obtained a queue slot.", float64(st.Accepted)},
		{"ptgserve_requests_rejected_total", "Requests refused by a full queue or closed service.", float64(st.Rejected)},
		{"ptgserve_requests_invalid_total", "Requests failing validation.", float64(st.Invalid)},
		{"ptgserve_requests_completed_total", "Requests executed successfully.", float64(st.Completed)},
		{"ptgserve_requests_failed_total", "Requests whose execution failed.", float64(st.Failed)},
		{"ptgserve_requests_expired_total", "Requests abandoned by their clients.", float64(st.Expired)},
		{"ptgserve_requests_in_flight", "Requests currently executing.", float64(st.InFlight)},
		{"ptgserve_queue_length", "Requests waiting for a worker.", float64(st.Queued)},
		{"ptgserve_queue_depth", "Configured queue capacity.", float64(st.QueueDepth)},
		{"ptgserve_workers", "Configured worker count.", float64(st.Workers)},
		{"ptgserve_busy_seconds_total", "Cumulative worker execution time.", st.BusySeconds},
		{"ptgserve_uptime_seconds", "Seconds since the service started.", st.UptimeSeconds},
		{"ptgserve_cache_hits_total", "Points served from verified cache entries.", float64(st.CacheHits)},
		{"ptgserve_cache_misses_total", "Points computed on a cache miss.", float64(st.CacheMisses)},
		{"ptgserve_cache_verify_failures_total", "Corrupted cache records detected and excluded.", float64(st.CacheVerifyFailures)},
	}
	for _, m := range ms {
		fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, metricType(m.name))
		fmt.Fprintf(w, "%s %g\n", m.name, m.value)
	}
	kinds := make([]string, 0, len(st.CompletedByKind))
	for k := range st.CompletedByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintln(w, "# HELP ptgserve_requests_completed_by_kind_total Completed requests per request kind.")
	fmt.Fprintln(w, "# TYPE ptgserve_requests_completed_by_kind_total counter")
	for _, k := range kinds {
		fmt.Fprintf(w, "ptgserve_requests_completed_by_kind_total{kind=%q} %g\n", k, float64(st.CompletedByKind[k]))
	}
}

// metricType classifies a metric name for the TYPE annotation.
func metricType(name string) string {
	if len(name) > 6 && name[len(name)-6:] == "_total" {
		return "counter"
	}
	return "gauge"
}
