package main

// End-to-end tests of the server lifecycle through the testable run()
// core: startup on an ephemeral port, the /v1/healthz fleet probe, a
// clean signal-triggered drain, and the -drain-timeout force-close path
// that abandons a wedged in-flight request as expired.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuf is a concurrency-safe output sink: run() writes from its own
// goroutine while the test polls for the listener line.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startServe runs the server on an ephemeral port and returns its base
// URL once the listener line appears.
func startServe(t *testing.T, extra ...string) (base string, sigCh chan os.Signal, done chan error, out *syncBuf) {
	t.Helper()
	out = &syncBuf{}
	sigCh = make(chan os.Signal, 1)
	done = make(chan error, 1)
	argv := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	go func() { done <- run(argv, out, sigCh) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], sigCh, done, out
		}
		select {
		case err := <-done:
			t.Fatalf("server exited before listening: %v (output %q)", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never listened: %q", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitExit(t *testing.T, done chan error, within time.Duration) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(within):
		t.Fatalf("server did not exit within %s", within)
		return nil
	}
}

// TestServeHealthzAndCleanDrain boots a named worker, probes its health
// snapshot, and shuts it down with a synthetic SIGTERM: the idle drain
// must be clean and prompt.
func TestServeHealthzAndCleanDrain(t *testing.T) {
	base, sigCh, done, out := startServe(t, "-name", "drill-1", "-workers", "2")

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hs struct {
		Status  string `json:"status"`
		Name    string `json:"name"`
		Workers int    `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hs.Status != "ok" || hs.Name != "drill-1" || hs.Workers != 2 {
		t.Fatalf("healthz %+v", hs)
	}

	sigCh <- syscall.SIGTERM
	if err := waitExit(t, done, 15*time.Second); err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
	if !strings.Contains(out.String(), "drained clean") {
		t.Fatalf("output %q missing the clean-drain line", out.String())
	}
}

// TestServeDrainTimeoutForceClose wedges the single worker on one fat
// campaign point (a point is not preemptible mid-run; a campaign stops
// only between points), then signals shutdown with a short
// -drain-timeout: run() must return within the budget — not hang on the
// wedged worker — and report the abandoned request as expired.
func TestServeDrainTimeoutForceClose(t *testing.T) {
	base, sigCh, done, out := startServe(t, "-workers", "1", "-drain-timeout", "2s")

	// One point of 64 PTGs of 50 tasks on 16 clusters × 4,096 processors,
	// every grid axis pinned: well over ten seconds of work, far beyond
	// the drain budget, yet within every service cap.
	clusters := make([]string, 16)
	for i := range clusters {
		clusters[i] = fmt.Sprintf(`{"name": "c%d", "procs": 4096, "speed": %d}`, i, i+1)
	}
	spec := `{"spec": {"name": "wedge", "seed": 1, "reps": 1, "nptgs": [64],
		"platform_specs": [{"name": "big", "clusters": [` + strings.Join(clusters, ", ") + `]}],
		"families": [{"family": "random", "tasks": [50], "widths": [0.5], "regularities": [0.5],
			"densities": [0.5], "jumps": [2], "complexities": ["mixed"]}]}}`
	go func() {
		c := &http.Client{Timeout: 500 * time.Millisecond}
		resp, err := c.Post(base+"/v1/campaign", "application/json", strings.NewReader(spec))
		if err == nil {
			resp.Body.Close()
		}
	}()

	// Wait until the worker has actually picked the request up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			InFlight int64 `json:"in_flight"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.InFlight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never picked the wedge request up")
		}
		time.Sleep(10 * time.Millisecond)
	}

	start := time.Now()
	sigCh <- syscall.SIGTERM
	if err := waitExit(t, done, 30*time.Second); err != nil {
		t.Fatalf("force-closed drain returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("drain took %v despite the 2s budget", elapsed)
	}
	if !strings.Contains(out.String(), "expired") {
		t.Fatalf("output %q does not report the expired in-flight request", out.String())
	}
}
