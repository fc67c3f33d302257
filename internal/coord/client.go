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

// RetryPolicy shapes the client's transient-failure handling: capped
// exponential backoff with jitter, bounded attempts.
type RetryPolicy struct {
	// MaxAttempts bounds the tries per request (first call included);
	// default 4.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (BaseDelay × 2^attempt);
	// default 200ms.
	BaseDelay time.Duration
	// MaxDelay caps one backoff sleep — including a server's Retry-After
	// ask, so a hostile or confused header cannot stall the coordinator;
	// default 5s.
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 200 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	return p
}

// ClientOptions configures a worker client.
type ClientOptions struct {
	// RequestTimeout bounds each attempt (not the whole retry loop);
	// default 10s.
	RequestTimeout time.Duration
	// Retry is the transient-failure policy.
	Retry RetryPolicy
	// Transport overrides the HTTP transport — the fault-injection hook;
	// default http.DefaultTransport.
	Transport http.RoundTripper
	// JitterSeed makes the backoff jitter deterministic; 0 uses a fixed
	// seed (tests that need divergent jitter across clients pass their
	// own).
	JitterSeed int64
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
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("coord: worker answered %d (%s): %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("coord: worker answered %d", e.Status)
}

// Client is the hardened HTTP client to one ptgserve worker: every call
// gets a per-attempt timeout, transient failures (network errors, 429,
// 502/503/504) are retried with capped exponential backoff and jitter,
// and a Retry-After header on a throttled response is honored (capped at
// RetryPolicy.MaxDelay). Safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	policy  RetryPolicy
	sleep   func(ctx context.Context, d time.Duration) error

	mu  sync.Mutex
	rng *rand.Rand

	// retries counts backoff-retried attempts, for the coordinator's
	// observability surface.
	retries func()
}

// NewClient returns a client for the worker at base (scheme optional;
// "host:port" is normalized to "http://host:port").
func NewClient(base string, opts ClientOptions) (*Client, error) {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u, err := url.Parse(base)
	if err != nil || u.Host == "" {
		return nil, fmt.Errorf("coord: invalid worker address %q", base)
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 10 * time.Second
	}
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
	seed := opts.JitterSeed
	if seed == 0 {
		seed = 1
	}
	return &Client{
		base:    strings.TrimRight(u.String(), "/"),
		hc:      &http.Client{Transport: transport},
		timeout: opts.RequestTimeout,
		policy:  opts.Retry.withDefaults(),
		sleep:   sleep,
		rng:     rand.New(rand.NewSource(seed)),
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
// BaseDelay × 2^attempt, capped at MaxDelay, jittered into [50%, 150%) —
// then raised to the server's Retry-After ask, itself capped at MaxDelay.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := c.policy.BaseDelay << uint(attempt)
	if d > c.policy.MaxDelay || d <= 0 {
		d = c.policy.MaxDelay
	}
	c.mu.Lock()
	d = d/2 + time.Duration(c.rng.Int63n(int64(d)))
	c.mu.Unlock()
	if retryAfter > c.policy.MaxDelay {
		retryAfter = c.policy.MaxDelay
	}
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// do runs one JSON request with the retry loop. A nil out discards the
// response body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doAttempts(ctx, method, path, in, out, c.policy.MaxAttempts)
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
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.retries()
		}
		var retryAfter time.Duration
		lastErr, retryAfter = c.once(ctx, method, path, body, out)
		if lastErr == nil {
			return nil
		}
		// Permanent failures and a dead parent context end the loop; only
		// transport errors and retryable statuses continue.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var se *StatusError
		if errors.As(lastErr, &se) && !retryableStatus(se.Status) {
			return lastErr
		}
		if attempt+1 < attempts {
			if err := c.sleep(ctx, c.backoff(attempt, retryAfter)); err != nil {
				return err
			}
		}
	}
	return fmt.Errorf("coord: %s %s%s failed after %d attempts: %w",
		method, c.base, path, attempts, lastErr)
}

// once runs a single attempt. retryAfter echoes a throttled response's
// Retry-After header.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) (err error, retryAfter time.Duration) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err, 0
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err, 0
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		se := &StatusError{Status: resp.StatusCode}
		var envelope struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16)); err == nil {
			if json.Unmarshal(b, &envelope) == nil {
				se.Message, se.Code = envelope.Error, envelope.Code
			}
		}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
		return se, retryAfter
	}
	if out == nil {
		return nil, 0
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("coord: decoding response: %w", err), 0
	}
	return nil, 0
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
	var lastErr error
	for attempt := 0; attempt < c.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries()
		}
		var retryAfter time.Duration
		var streamed bool
		streamed, lastErr, retryAfter = c.streamOnce(ctx, path, fn)
		if lastErr == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if streamed {
			// Bytes already reached fn: this is a mid-stream cut, not a
			// connect failure — surface it so the caller's dedup logic,
			// not a blind retry, decides.
			return lastErr
		}
		var se *StatusError
		if errors.As(lastErr, &se) && !retryableStatus(se.Status) {
			return lastErr
		}
		if attempt+1 < c.policy.MaxAttempts {
			if err := c.sleep(ctx, c.backoff(attempt, retryAfter)); err != nil {
				return err
			}
		}
	}
	return fmt.Errorf("coord: streaming %s%s failed after %d attempts: %w",
		c.base, path, c.policy.MaxAttempts, lastErr)
}

// streamOnce is one streaming attempt; streamed reports whether any line
// was decoded before the failure.
func (c *Client) streamOnce(ctx context.Context, path string, fn func(scenario.PointResult) error) (streamed bool, err error, retryAfter time.Duration) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return false, err, 0
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, err, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		se := &StatusError{Status: resp.StatusCode}
		var envelope struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16)); err == nil {
			if json.Unmarshal(b, &envelope) == nil {
				se.Message, se.Code = envelope.Error, envelope.Code
			}
		}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
		return false, se, retryAfter
	}
	n := 0
	err = scenario.ReadJSONLFunc(resp.Body, func(r scenario.PointResult) error {
		n++
		return fn(r)
	})
	return n > 0, err, 0
}
