// Command ptgserve runs the concurrent scheduling service as an HTTP+JSON
// server: schedule/online/workload/campaign requests are queued onto a
// bounded worker pool, each worker executing the full paper pipeline per
// request. Long campaign sweeps run as asynchronous *jobs*: submit,
// poll progress, stream completed results, cancel (see the README's
// "Long-running campaigns" section for a curl session). A fleet of
// ptgserve processes is driven by `ptgbench -coordinate`, which leases
// campaign shards to workers and reassigns them on failure.
//
// Usage:
//
//	ptgserve -addr :8080 -workers 8 -queue 128 -timeout 60s \
//	         -name worker-1 -drain-timeout 30s \
//	         -max-campaign-points 16384 -max-job-points 1048576
//
// Endpoints:
//
//	POST /v1/schedule  {"platform":"rennes","family":"random","count":6,"strategy":"WPS-work","seed":7}
//	POST /v1/online    {"platform":"sophia","count":8,"process":"poisson","rate":0.25,"seed":1}
//	POST /v1/workload  {"family":"fft","count":10,"process":"uniform","rate":0.5}
//	POST /v1/campaign  {"spec":{...declarative campaign spec...},"shard":"0/4"}
//	POST   /v1/jobs               {"spec":{...},"shards":4,"shard":"1/3"}  → 202 + job id (async)
//	GET    /v1/jobs               all jobs' status
//	GET    /v1/jobs/{id}          progress: state, completed/total, per-shard counts
//	GET    /v1/jobs/{id}/results  completed results as JSONL; ?family=&strategy=&from=&to=
//	DELETE /v1/jobs/{id}          cancel via context and forget
//	GET  /v1/healthz   health snapshot as JSON (status, name, load) — the fleet probe
//	GET  /v1/stats     service counters as JSON
//	GET  /metrics      the same counters in Prometheus text format
//	GET  /healthz      liveness probe
//
// A full queue answers 429 with a Retry-After hint derived from the queue
// depth and measured latency; a request exceeding the timeout answers
// 504; an unknown job id answers 404. Every error response carries the
// JSON envelope {"error": ..., "code": ...}. SIGINT/SIGTERM cancel
// running jobs and drain in-flight requests; a drain still not finished
// after -drain-timeout is force-closed, with the abandoned requests
// counted as expired.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ptgsched"
	"ptgsched/internal/cli"
)

func main() {
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	cli.Main("ptgserve", func(argv []string, w io.Writer) error { return run(argv, w, sigCh) })
}

// run executes one ptgserve invocation: listen, serve until the listener
// fails or sigCh delivers, then drain within the drain timeout. It is the
// testable core behind main — the listener address is printed to w (an
// ":0" addr resolves to a real port), and a test's synthetic signal on
// sigCh triggers the same drain path a real SIGTERM does.
func run(argv []string, w io.Writer, sigCh <-chan os.Signal) error {
	fs := flag.NewFlagSet("ptgserve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		name      = fs.String("name", "", "worker name reported by /v1/healthz (default: unnamed)")
		workers   = fs.Int("workers", 0, "scheduling workers (default: GOMAXPROCS)")
		queue     = fs.Int("queue", 0, "request queue depth (default: 64)")
		timeout   = fs.Duration("timeout", 0, "per-request timeout (default: 60s)")
		drain     = fs.Duration("drain-timeout", 30*time.Second, "shutdown: force-close after draining this long")
		maxPoints = fs.Int("max-campaign-points", 0, "points one synchronous campaign may execute (default: 16384)")
		maxExpand = fs.Int("max-campaign-expansion", 0, "total expansion a campaign request may address (default: 2^24)")
		maxJob    = fs.Int("max-job-points", 0, "points one async job may execute (default: 2^20)")
		maxBack   = fs.Int("max-job-backlog", 0, "total points across live jobs (default: 2^21)")
		cacheDir  = fs.String("cache", "", "content-addressed result cache directory (created if missing); campaign and job points are served from verified cache entries and published back — point a fleet's workers at one shared directory")
	)
	if ok, err := cli.Parse(fs, argv, w); !ok {
		return err
	}

	var ch *ptgsched.CampaignCache
	if *cacheDir != "" {
		var err error
		if ch, err = ptgsched.OpenCampaignCache(*cacheDir); err != nil {
			return err
		}
		st := ch.Stats()
		fmt.Fprintf(w, "ptgserve: cache %s: %d entries, %d verify failures\n",
			*cacheDir, st.Entries, st.VerifyFailures)
		defer func() {
			if err := ch.Close(); err != nil {
				fmt.Fprintf(w, "ptgserve: cache %s: %v\n", *cacheDir, err)
			}
			st := ch.Stats()
			fmt.Fprintf(w, "ptgserve: cache %s: hits=%d misses=%d verify_failures=%d entries=%d\n",
				*cacheDir, st.Hits, st.Misses, st.VerifyFailures, st.Entries)
		}()
	}

	svc := ptgsched.NewService(ptgsched.ServiceOptions{
		Name:           *name,
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		Cache:          ch,
		Limits: ptgsched.ServiceLimits{
			CampaignPoints:    *maxPoints,
			CampaignExpansion: *maxExpand,
			JobPoints:         *maxJob,
			JobBacklog:        *maxBack,
		},
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		svc.Close()
		return err
	}
	eff := svc.Options()
	fmt.Fprintf(w, "ptgserve: listening on %s (%d workers, queue %d, timeout %s)\n",
		ln.Addr(), eff.Workers, eff.QueueDepth, eff.RequestTimeout)

	srv := &http.Server{Handler: ptgsched.ServiceHandler(svc)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		// The listener failed before any shutdown was requested.
		svc.Close()
		return err
	case sig := <-sigCh:
		fmt.Fprintf(w, "ptgserve: %s, draining (timeout %s)\n", sig, *drain)
		deadline := time.Now().Add(*drain)
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			// The HTTP drain blew the budget: sever the connections so no
			// stuck client can hold the process open.
			fmt.Fprintf(w, "ptgserve: drain timeout: force-closing connections\n")
			srv.Close()
		}
		// Drain the service workers within what's left of the budget
		// (floor 1s so a spent budget still gets one settle pass); a
		// request still running after that is abandoned as expired.
		grace := time.Until(deadline)
		if grace < time.Second {
			grace = time.Second
		}
		if stuck := svc.CloseGrace(grace); stuck > 0 {
			fmt.Fprintf(w, "ptgserve: drain timeout: %d in-flight requests expired\n", stuck)
		} else {
			fmt.Fprintf(w, "ptgserve: drained clean\n")
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
