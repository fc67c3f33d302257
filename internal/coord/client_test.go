package coord

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ptgsched/internal/faultinject"
	"ptgsched/internal/scenario"
)

// recordedSleep replaces the backoff sleep and logs requested delays.
func recordedSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

func faultyClient(t *testing.T, plan faultinject.Plan, opts ClientOptions) (*Client, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "{}")
	}))
	t.Cleanup(ts.Close)
	opts.Transport = &faultinject.Transport{Base: ts.Client().Transport, Plan: plan}
	c, err := NewClient(ts.URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, ts
}

// TestClientRetrySequence drives the retry loop through a drop, then a
// throttled 503 carrying Retry-After, to success — checking both that the
// call survives and that the second backoff is raised to the server's ask.
func TestClientRetrySequence(t *testing.T) {
	var delays []time.Duration
	c, _ := faultyClient(t, faultinject.NewScript(
		faultinject.Action{Kind: faultinject.Drop},
		faultinject.Action{Kind: faultinject.Status, Code: http.StatusServiceUnavailable, RetryAfter: 3},
		faultinject.Action{Kind: faultinject.Pass},
	), ClientOptions{Sleep: recordedSleep(&delays)})

	var out struct{}
	if err := c.do(context.Background(), http.MethodGet, "/", nil, &out); err != nil {
		t.Fatalf("retried call failed: %v", err)
	}
	if len(delays) != 2 {
		t.Fatalf("slept %d times (%v), want 2", len(delays), delays)
	}
	// First backoff: jittered 200ms base ∈ [100ms, 300ms).
	if delays[0] < 100*time.Millisecond || delays[0] >= 300*time.Millisecond {
		t.Fatalf("first backoff %v outside jitter window", delays[0])
	}
	// Second: the exponential term (≤ 600ms) is raised to Retry-After 3s.
	if delays[1] != 3*time.Second {
		t.Fatalf("throttled backoff %v, want the Retry-After 3s", delays[1])
	}
}

// TestClientRetryAfterCapped refuses to honor a Retry-After beyond
// MaxDelay — a confused server must not stall the coordinator.
func TestClientRetryAfterCapped(t *testing.T) {
	var delays []time.Duration
	c, _ := faultyClient(t, faultinject.NewScript(
		faultinject.Action{Kind: faultinject.Status, Code: http.StatusTooManyRequests, RetryAfter: 9999},
	), ClientOptions{Sleep: recordedSleep(&delays)})
	if err := c.do(context.Background(), http.MethodGet, "/", nil, nil); err != nil {
		t.Fatalf("call after throttle failed: %v", err)
	}
	if len(delays) != 1 || delays[0] != 5*time.Second {
		t.Fatalf("delays %v, want one sleep capped at MaxDelay 5s", delays)
	}
}

// TestClientAttemptsExhausted stops after MaxAttempts against a worker
// that drops everything, surfacing the underlying fault.
func TestClientAttemptsExhausted(t *testing.T) {
	var delays []time.Duration
	plan := faultinject.NewScript().Then(faultinject.Action{Kind: faultinject.Drop})
	c, _ := faultyClient(t, plan, ClientOptions{Sleep: recordedSleep(&delays)})
	err := c.do(context.Background(), http.MethodGet, "/", nil, nil)
	if err == nil {
		t.Fatal("call against a dead worker succeeded")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("error %v does not carry the injected fault", err)
	}
	if !strings.Contains(err.Error(), "after 4 attempts") {
		t.Fatalf("error %q does not report the attempt budget", err)
	}
	if len(delays) != 3 {
		t.Fatalf("slept %d times, want 3 (between 4 attempts)", len(delays))
	}
}

// TestClientPermanentNoRetry returns a 400 immediately: retrying a
// validation failure would only repeat it.
func TestClientPermanentNoRetry(t *testing.T) {
	var delays []time.Duration
	c, _ := faultyClient(t, faultinject.NewScript(
		faultinject.Action{Kind: faultinject.Status, Code: http.StatusBadRequest},
	), ClientOptions{Sleep: recordedSleep(&delays)})
	err := c.do(context.Background(), http.MethodGet, "/", nil, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("err %v, want StatusError 400", err)
	}
	if len(delays) != 0 {
		t.Fatalf("client retried a permanent failure (%d sleeps)", len(delays))
	}
}

// TestClientNormalizesAddress accepts bare host:port worker addresses.
func TestClientNormalizesAddress(t *testing.T) {
	c, err := NewClient("worker-3:8080", ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Base() != "http://worker-3:8080" {
		t.Fatalf("base %q", c.Base())
	}
	if _, err := NewClient("://", ClientOptions{}); err == nil {
		t.Fatal("invalid address accepted")
	}
}

// streamingClient is faultyClient over a stub worker that streams the
// given JSONL from /v1/jobs/x/results.
func streamingClient(t *testing.T, stream []byte, plan faultinject.Plan, delays *[]time.Duration) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/x/results" {
			http.NotFound(w, r)
			return
		}
		w.Write(stream)
	}))
	t.Cleanup(ts.Close)
	c, err := NewClient(ts.URL, ClientOptions{
		Transport: &faultinject.Transport{Base: ts.Client().Transport, Plan: plan},
		Sleep:     recordedSleep(delays),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestClientJobResultsRetry drives JobResults, the streaming branch of the
// retry loop: a failure before the first record is retried like any
// request, a cut after it is final, a 400 is permanent, and a worker that
// drops everything exhausts the attempt budget.
func TestClientJobResultsRetry(t *testing.T) {
	var stream bytes.Buffer
	if err := scenario.WriteJSONL(&stream, []scenario.PointResult{
		{Index: 0, Name: "a"}, {Index: 1, Name: "b"}, {Index: 2, Name: "c"},
	}); err != nil {
		t.Fatal(err)
	}
	firstLine := int64(bytes.IndexByte(stream.Bytes(), '\n') + 1)
	for _, tc := range []struct {
		name    string
		plan    faultinject.Plan
		records int
		sleeps  int
		check   func(t *testing.T, err error)
	}{
		{"dropped first attempt", faultinject.NewScript(faultinject.Action{Kind: faultinject.Drop}),
			3, 1, func(t *testing.T, err error) {
				if err != nil {
					t.Fatalf("retried stream failed: %v", err)
				}
			}},
		{"severed after first line", faultinject.NewScript(faultinject.Action{Kind: faultinject.Sever, After: firstLine}),
			1, 0, func(t *testing.T, err error) {
				if !errors.Is(err, faultinject.ErrInjected) || strings.Contains(err.Error(), "attempts") {
					t.Fatalf("err %v, want the cut itself, unretried", err)
				}
			}},
		{"permanent 400", faultinject.NewScript(faultinject.Action{Kind: faultinject.Status, Code: http.StatusBadRequest}),
			0, 0, func(t *testing.T, err error) {
				var se *StatusError
				if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
					t.Fatalf("err %v, want StatusError 400", err)
				}
			}},
		{"four drops", faultinject.NewScript().Then(faultinject.Action{Kind: faultinject.Drop}),
			0, 3, func(t *testing.T, err error) {
				if err == nil || !strings.Contains(err.Error(), "streaming ") ||
					!strings.Contains(err.Error(), "failed after 4 attempts") {
					t.Fatalf("err %v, want streaming … failed after 4 attempts", err)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var delays []time.Duration
			c := streamingClient(t, stream.Bytes(), tc.plan, &delays)
			var got []string
			err := c.JobResults(context.Background(), "x", func(r scenario.PointResult) error {
				got = append(got, r.Name)
				return nil
			})
			tc.check(t, err)
			if len(got) != tc.records {
				t.Fatalf("delivered %v, want %d records", got, tc.records)
			}
			if len(delays) != tc.sleeps {
				t.Fatalf("slept %d times (%v), want %d", len(delays), delays, tc.sleeps)
			}
		})
	}
}

// TestStatusErrorText: a worker's answer reads with its envelope when the
// worker sent one, and as the bare status otherwise.
func TestStatusErrorText(t *testing.T) {
	for _, tc := range []struct {
		err  *StatusError
		want string
	}{
		{&StatusError{Status: 400, Code: "bad_request", Message: "unknown field"}, "coord: worker answered 400 (bad_request): unknown field"},
		{&StatusError{Status: 502}, "coord: worker answered 502"},
	} {
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("got %q, want %q", got, tc.want)
		}
	}
}
