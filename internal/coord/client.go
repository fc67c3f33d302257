// Package coord implements the campaign fleet coordinator: a campaign
// spec is split into shard leases (the scenario stride partition), each
// lease is dispatched to a remote ptgserve worker as an asynchronous
// /v1/jobs job, and the coordinator drives every lease to completion
// under failure — retrying transient errors with capped exponential
// backoff, honoring server Retry-After hints, detecting dead or stalled
// workers through progress polls and /v1/healthz probes, and reassigning
// their leases to surviving workers. Completed results stream back
// through the scenario Aggregator's order-insensitive reduction, and
// re-executed shards are deduplicated against its seen-bitmap, so the
// final tables are bit-identical to a single-machine run no matter how
// many workers died on the way. A fully-partitioned fleet fails with a
// clear error instead of hanging.
package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"ptgsched/internal/scenario"
	"ptgsched/internal/service"
)

// The retry policy: capped exponential backoff with jitter over a bounded
// number of attempts, each under its own timeout.
const (
	// maxAttempts bounds the tries per request, the first included.
	maxAttempts = 4
	// baseDelay seeds the backoff: baseDelay × 2^attempt, jittered into
	// [50%, 150%).
	baseDelay = 200 * time.Millisecond
	// maxDelay caps one backoff sleep, a server's Retry-After ask
	// included, so a hostile or confused header cannot stall the
	// coordinator.
	maxDelay = 5 * time.Second
	// attemptTimeout bounds each attempt, not the whole retry loop.
	attemptTimeout = 10 * time.Second
)

// ClientOptions holds a worker client's test seams.
type ClientOptions struct {
	// Transport overrides the HTTP transport — the fault-injection hook;
	// default http.DefaultTransport.
	Transport http.RoundTripper
	// Sleep replaces the backoff sleep, so tests assert on requested
	// delays instead of waiting them out. Nil sleeps for real.
	Sleep func(ctx context.Context, d time.Duration) error
}

// StatusError is a non-2xx response the retry loop did not (or could not)
// retry away, carrying the service's JSON error envelope.
type StatusError struct {
	Status int
	// Code and Message are the envelope fields ({"error","code"}).
	Code    string
	Message string

	// retryAfter echoes a throttled response's Retry-After header.
	retryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("coord: worker answered %d (%s): %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("coord: worker answered %d", e.Status)
}

// statusError decodes a non-2xx response: the service's error envelope
// and a throttled response's Retry-After ask.
func statusError(resp *http.Response) *StatusError {
	se := &StatusError{Status: resp.StatusCode}
	var envelope struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16)); err == nil && json.Unmarshal(b, &envelope) == nil {
		se.Message, se.Code = envelope.Error, envelope.Code
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		se.retryAfter = time.Duration(secs) * time.Second
	}
	return se
}

// Client is the hardened HTTP client to one ptgserve worker: every call
// gets a per-attempt timeout, transient failures (network errors, 429,
// 502/503/504) are retried with capped exponential backoff and jitter,
// and a Retry-After header on a throttled response is honored (capped at
// maxDelay). Safe for concurrent use.
type Client struct {
	base  string
	hc    *http.Client
	sleep func(ctx context.Context, d time.Duration) error

	mu  sync.Mutex
	rng *rand.Rand

	// retries counts backoff-retried attempts, for the coordinator's
	// observability surface.
	retries func()
}

// NewClient returns a client for the worker at base (scheme optional;
// "host:port" is normalized to "http://host:port"). Its backoff jitter is
// seeded by the normalized address: deterministic per worker, distinct
// across a fleet.
func NewClient(base string, opts ClientOptions) (*Client, error) {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u, err := url.Parse(base)
	if err != nil || u.Host == "" {
		return nil, fmt.Errorf("coord: invalid worker address %q", base)
	}
	base = strings.TrimRight(u.String(), "/")
	transport := opts.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	sleep := opts.Sleep
	if sleep == nil {
		sleep = func(ctx context.Context, d time.Duration) error {
			select {
			case <-time.After(d):
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	seed := fnv.New64a()
	seed.Write([]byte(base))
	return &Client{
		base:    base,
		hc:      &http.Client{Transport: transport},
		sleep:   sleep,
		rng:     rand.New(rand.NewSource(int64(seed.Sum64()))),
		retries: func() {},
	}, nil
}

// Base returns the normalized worker address.
func (c *Client) Base() string { return c.base }

// retryableStatus reports whether a status speaks of a transient
// condition worth backing off on.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoff computes the sleep before retry number attempt (0-based):
// baseDelay × 2^attempt, capped at maxDelay, jittered into [50%, 150%) —
// then raised to the server's Retry-After ask, itself capped at maxDelay.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := baseDelay << uint(attempt)
	if d > maxDelay || d <= 0 {
		d = maxDelay
	}
	c.mu.Lock()
	d = d/2 + time.Duration(c.rng.Int63n(int64(d)))
	c.mu.Unlock()
	if retryAfter > maxDelay {
		retryAfter = maxDelay
	}
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// retry is the one retry loop: it runs try up to attempts times, each
// under attemptTimeout, backing off between tries. A dead parent context,
// a non-retryable status, or a failure try reports as final ends the
// loop; only transport errors and retryable statuses continue. verb and
// path name the request in the exhausted-budget error.
//
// A POST creates a job, and only its answer tells the caller the job's
// id, so the parent's cancel never cuts a POST attempt off: the attempt
// runs to its answer (within attemptTimeout) and the cancel stops the
// tries after it.
func (c *Client) retry(ctx context.Context, verb, path string, attempts int, try func(ctx context.Context) (final bool, err error)) error {
	base := ctx
	if verb == http.MethodPost {
		base = context.WithoutCancel(ctx)
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.retries()
		}
		actx, cancel := context.WithTimeout(base, attemptTimeout)
		final, err := try(actx)
		cancel()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if final {
			return err
		}
		var retryAfter time.Duration
		var se *StatusError
		if errors.As(err, &se) {
			if !retryableStatus(se.Status) {
				return err
			}
			retryAfter = se.retryAfter
		}
		lastErr = err
		if attempt+1 < attempts {
			if err := c.sleep(ctx, c.backoff(attempt, retryAfter)); err != nil {
				return err
			}
		}
	}
	return fmt.Errorf("coord: %s %s%s failed after %d attempts: %w",
		verb, c.base, path, attempts, lastErr)
}

// send issues one request and turns a non-2xx answer into its
// *StatusError. A nil body sends none.
func (c *Client) send(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		defer resp.Body.Close()
		return nil, statusError(resp)
	}
	return resp, nil
}

// do runs one JSON request through the retry loop with the full attempt
// budget. A nil out discards the response body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doAttempts(ctx, method, path, in, out, maxAttempts)
}

// doAttempts is do with an explicit attempt budget (probes pass 1).
func (c *Client) doAttempts(ctx context.Context, method, path string, in, out any, attempts int) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("coord: encoding request: %w", err)
		}
	}
	return c.retry(ctx, method, path, attempts, func(ctx context.Context) (bool, error) {
		resp, err := c.send(ctx, method, path, body)
		if err != nil {
			return false, err
		}
		defer func() {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
		}()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return false, fmt.Errorf("coord: decoding response: %w", err)
			}
		}
		return false, nil
	})
}

// Probe is a single-attempt health check — the cheap "is it back?"
// question asked of a worker already believed dead, where the full
// backoff loop would only slow the verdict down.
func (c *Client) Probe(ctx context.Context) error {
	return c.doAttempts(ctx, http.MethodGet, "/v1/healthz", nil, nil, 1)
}

// SubmitJob submits one asynchronous campaign job (a shard lease).
func (c *Client) SubmitJob(ctx context.Context, req service.JobRequest) (*service.JobStatus, error) {
	var st service.JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// JobStatus polls one job's progress.
func (c *Client) JobStatus(ctx context.Context, id string) (*service.JobStatus, error) {
	var st service.JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// CancelJob cancels and forgets one job.
func (c *Client) CancelJob(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, nil)
}

// JobResults streams the job's completed results, calling fn per point.
// Establishing the stream goes through the retry loop; a failure *mid*
// stream is returned as-is — the caller re-fetches and deduplicates
// (results already delivered stay delivered).
func (c *Client) JobResults(ctx context.Context, id string, fn func(scenario.PointResult) error) error {
	path := "/v1/jobs/" + url.PathEscape(id) + "/results"
	return c.retry(ctx, "streaming", path, maxAttempts, func(ctx context.Context) (bool, error) {
		resp, err := c.send(ctx, http.MethodGet, path, nil)
		if err != nil {
			return false, err
		}
		defer resp.Body.Close()
		n := 0
		err = scenario.ReadJSONLFunc(resp.Body, func(r scenario.PointResult) error {
			n++
			return fn(r)
		})
		// Once a record has reached fn a failure is a mid-stream cut, not
		// a connect failure: surface it so the caller's dedup logic, not a
		// blind retry, decides.
		return n > 0, err
	})
}
