// Package service turns the per-batch scheduling pipeline into a concurrent
// scheduling service: many client sessions are multiplexed through one
// shared server core, the architecture the ROADMAP's production target
// calls for. Requests — offline batch scheduling, online dynamic-arrival
// scheduling, workload generation, synchronous campaign sweeps and
// asynchronous campaign *jobs* (submit, poll progress, stream results,
// cancel; see jobs.go) — are queued onto a bounded worker pool; each
// worker executes one request at a time on a private Scheduler instance
// over shared read-only platform state.
//
// Concurrency: the Service is safe for use by any number of goroutines.
// The safety argument mirrors how the rest of the module is built: a
// platform.Platform and its sim.Links are immutable after construction, the
// strategy/alloc/mapping pipeline keeps all mutable state in per-call
// values, and the only caching mutable structure — dag.Graph's analysis
// caches — is confined to graphs generated privately per request. The
// simulated executor's reusable state and the allocation traces live in one
// scratch per worker (a core.Scratch for the offline pipeline, an
// online.Scratch for /v1/online): the worker goroutine creates it, hands it
// to each request it runs (one at a time, so the scratch never leaves that
// goroutine) and releases it when the request ends, so a parked scratch
// pins nothing of the last request; everything a response carries is copied
// out of scratch-owned results before then. Nothing is shared between two
// in-flight requests except immutable platforms, so requests never contend
// on scheduling state, only on the queue and the stats counters.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ptgsched/internal/cache"
	"ptgsched/internal/core"
	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/mapping"
	"ptgsched/internal/online"
	"ptgsched/internal/platform"
	"ptgsched/internal/scenario"
	"ptgsched/internal/strategy"
	"ptgsched/internal/trace"
	"ptgsched/internal/workload"
)

// Service errors. The HTTP layer maps them onto status codes (429, 503).
var (
	// ErrQueueFull is returned when the bounded request queue is at
	// capacity; the client should back off and retry.
	ErrQueueFull = errors.New("service: request queue full")
	// ErrClosed is returned for requests submitted after Close.
	ErrClosed = errors.New("service: closed")
)

// ValidationError wraps a request-resolution failure (unknown platform or
// strategy name, out-of-range parameter). The HTTP layer maps it to 400.
type ValidationError struct{ Err error }

func (e *ValidationError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying resolution error to errors.Is/As.
func (e *ValidationError) Unwrap() error { return e.Err }

// invalidf marks err as a validation failure and counts it.
func (s *Service) invalid(err error) error {
	s.stats.invalid.Add(1)
	return &ValidationError{Err: err}
}

// Options configures a Service. The zero value is production-reasonable:
// one worker per GOMAXPROCS, a 64-request queue, a 60-second per-request
// timeout, and the default campaign/job admission limits.
type Options struct {
	// Name identifies this service instance to fleet tooling (the
	// ptgserve -name flag): it is echoed by GET /v1/healthz so a
	// coordinator can tell its workers apart. Empty is fine.
	Name string
	// Workers is the number of scheduling workers; default GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of requests waiting for a worker;
	// default 64. Submissions beyond it fail fast with ErrQueueFull.
	QueueDepth int
	// RequestTimeout caps the time a request may spend queued plus
	// executing; default 60s. Zero or negative values use the default; use
	// NoTimeout to disable.
	RequestTimeout time.Duration
	// NoTimeout disables the per-request timeout (contexts passed by the
	// caller still apply).
	NoTimeout bool
	// Limits tunes the campaign and job admission caps; zero fields take
	// the Default* values (see Limits).
	Limits Limits
	// Cache, when set, memoizes campaign and job points through a shared
	// content-addressed cache (the ptgserve -cache flag): every sweep
	// consults it before computing and publishes after, and its
	// hit/miss/verify-failure counters surface in Stats. Fleet workers
	// pointed at one cache directory share each other's results — a
	// reassigned shard skips the points its dead owner already proved.
	Cache *cache.Cache
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 60 * time.Second
	}
	o.Limits = o.Limits.withDefaults()
	return o
}

// Service is a concurrent scheduling service: a bounded queue feeding a
// fixed pool of workers, each running the full paper pipeline per request.
// Create one with New and release it with Close.
type Service struct {
	opts  Options
	queue chan *job
	wg    sync.WaitGroup
	start time.Time

	mu     sync.Mutex // guards closed and the queue send vs Close
	closed bool

	jobs jobRegistry

	stats counters
}

// job is one queued request.
type job struct {
	ctx      context.Context
	kind     string
	enqueued time.Time
	// run executes the request on the worker's scratch, which is the
	// request's alone until run returns.
	run  func(sc *scratch) (any, error)
	done chan outcome
	// settled arbitrates the accounting between the worker and the
	// submitter: whoever swaps it first counts the job's fate, so
	// Completed + Failed + Expired partitions Accepted exactly even when a
	// result and a deadline race.
	settled atomic.Bool
}

// settle reports whether the caller won the right to account for the job.
func (j *job) settle() bool { return j.settled.CompareAndSwap(false, true) }

type outcome struct {
	value any // the *T the request's run returned
	err   error
}

// New starts a service with opts defaults applied.
func New(opts Options) *Service {
	opts = opts.withDefaults()
	s := &Service{
		opts:  opts,
		queue: make(chan *job, opts.QueueDepth),
		start: time.Now(),
	}
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s
}

// Options returns the effective (defaulted) options the service runs with.
func (s *Service) Options() Options { return s.opts }

// Close stops accepting requests, cancels running async jobs, waits for
// queued and in-flight requests to finish, and releases the workers. It is
// idempotent.
func (s *Service) Close() {
	s.CloseGrace(0)
}

// CloseGrace is Close with a bounded drain: it stops accepting requests,
// cancels running async jobs (their fate is counted as expired, like any
// request whose client gave up), and waits at most grace for the workers
// to finish — grace ≤ 0 waits without bound, exactly Close. It returns
// the number of requests still executing when the deadline passed; 0
// means the drain was clean and every spool was released. A nonzero
// return means some worker is still burning CPU on an uncancellable
// request — the caller is expected to be exiting the process, which is
// the only way to reclaim it. Idempotent: later calls (including a
// bounded call after an unbounded one already returned) re-wait on the
// same drained state and return 0.
func (s *Service) CloseGrace(grace time.Duration) int {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
		// A running campaign job would otherwise hold its worker until the
		// sweep finishes; cancel them all so the drain completes promptly.
		for _, h := range s.jobs.list() {
			h.cancel()
		}
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var timeout <-chan time.Time // nil, which never fires, without a grace
	if grace > 0 {
		timeout = time.After(grace)
	}
	select {
	case <-drained:
	case <-timeout:
		select {
		case <-drained: // drained at the wire: fall through, clean
		default:
			// Workers still running: report how many, leave their spools
			// alone (a worker may hold the spool mutex mid-append; the
			// process is exiting anyway).
			return max(1, int(s.stats.inFlight.Load()))
		}
	}
	// Jobs are not queryable after Close; drop every result spool.
	for _, h := range s.jobs.list() {
		h.release()
	}
	return 0
}

// scratch is what one worker owns and lends to the request it is running.
type scratch struct {
	core   *core.Scratch
	online *online.Scratch
}

func (sc *scratch) release() {
	sc.core.Release()
	sc.online.Release()
}

// worker executes queued jobs until the queue closes, all on the one
// scratch it owns.
func (s *Service) worker() {
	defer s.wg.Done()
	sc := &scratch{core: core.NewScratch(), online: online.NewScratch()}
	for j := range s.queue {
		if err := j.ctx.Err(); err != nil {
			// The client gave up while the job was queued; don't burn a
			// worker on an answer nobody reads.
			if j.settle() {
				s.stats.expired.Add(1)
			}
			j.done <- outcome{err: err}
			continue
		}
		s.stats.inFlight.Add(1)
		started := time.Now()
		resp, err := runSafely(j.run, sc)
		sc.release()
		elapsed := time.Since(started)
		s.stats.inFlight.Add(-1)
		s.stats.busyNanos.Add(elapsed.Nanoseconds())
		s.stats.queueWaitNanos.Add(started.Sub(j.enqueued).Nanoseconds())
		if j.settle() {
			switch {
			case err == nil:
				s.stats.completed.Add(1)
				s.stats.byKind(j.kind).Add(1)
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				// The client gave up mid-execution (a canceled async job,
				// or a rare ctx-aware run): that is an expiry, not a
				// pipeline failure.
				s.stats.expired.Add(1)
			default:
				s.stats.failed.Add(1)
			}
		}
		j.done <- outcome{value: resp, err: err}
	}
}

// runSafely converts a panic in the pipeline (e.g. a degenerate generated
// scenario) into an error, so one bad request cannot take down a worker.
// The scratch stays usable: every call on it rebuilds its state from the
// call's inputs.
func runSafely(run func(*scratch) (any, error), sc *scratch) (resp any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: request panicked: %v", r)
		}
	}()
	return run(sc)
}

// admit is the one door onto the queue: it refuses a closed service or a
// full queue without blocking, and counts the job as accepted or rejected.
func (s *Service) admit(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.stats.rejected.Add(1)
		return ErrClosed
	}
	select {
	case s.queue <- j:
		s.stats.accepted.Add(1)
		return nil
	default:
		s.stats.rejected.Add(1)
		return ErrQueueFull
	}
}

// submit is the synchronous request path — admit, run on a worker, hand
// the response back — for a validated request whose run returns a *T. It
// waits for the outcome or the context. Requests abandoned at a timeout
// keep their queue slot until a worker pops and discards them.
func submit[T any](ctx context.Context, s *Service, kind string, run func(*scratch) (any, error)) (*T, error) {
	if !s.opts.NoTimeout {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
	}
	j := &job{ctx: ctx, kind: kind, enqueued: time.Now(), run: run, done: make(chan outcome, 1)}
	if err := s.admit(j); err != nil {
		return nil, err
	}

	select {
	case out := <-j.done:
		// Enforce the deadline strictly even when the result arrives in
		// the same scheduling instant: a timed-out request reports the
		// timeout, not a lucky result. The worker already settled the
		// accounting for an execution that finished, so this path adds no
		// second count.
		if err := ctx.Err(); err != nil {
			if j.settle() {
				s.stats.expired.Add(1)
			}
			return nil, err
		}
		if out.err != nil {
			return nil, out.err
		}
		return out.value.(*T), nil
	case <-ctx.Done():
		if j.settle() {
			s.stats.expired.Add(1)
		}
		return nil, ctx.Err()
	}
}

// ScheduleRequest describes one offline batch-scheduling request: generate
// Count PTGs of Family with Seed, schedule them on Platform under Strategy,
// and simulate the execution. All fields are JSON-friendly so the request
// can travel over the ptgserve wire format unchanged.
type ScheduleRequest struct {
	// Platform names a Grid'5000 preset: lille, nancy, rennes (default) or
	// sophia.
	Platform string `json:"platform,omitempty"`
	// Family is the PTG family: random (default), fft or strassen.
	Family string `json:"family,omitempty"`
	// Count is the number of concurrently-submitted PTGs; default 4.
	Count int `json:"count,omitempty"`
	// Strategy is the paper name of the constraint strategy; default
	// "WPS-work".
	Strategy string `json:"strategy,omitempty"`
	// Mu overrides the paper's calibrated µ for WPS strategies; nil keeps
	// the default.
	Mu *float64 `json:"mu,omitempty"`
	// Seed makes the generated scenario deterministic.
	Seed int64 `json:"seed,omitempty"`
	// Ordering selects the mapping ordering: "" or "ready" (the paper's),
	// or "global" (the Fig. 1 counterexample).
	Ordering string `json:"ordering,omitempty"`
	// NoPacking disables allocation packing.
	NoPacking bool `json:"no_packing,omitempty"`
	// ComputeOwn additionally schedules each PTG alone to report slowdowns
	// and unfairness (Eq. 3–5); it costs Count extra pipeline runs.
	ComputeOwn bool `json:"compute_own,omitempty"`
}

// ScheduleResponse reports one scheduled batch.
type ScheduleResponse struct {
	Platform string `json:"platform"`
	Strategy string `json:"strategy"`
	Count    int    `json:"count"`
	// Betas are the per-application resource constraints.
	Betas []float64 `json:"betas"`
	// AppMakespans are simulated per-application completion times (s).
	AppMakespans []float64 `json:"app_makespans"`
	// Makespan is the simulated completion time of the whole batch (s).
	Makespan float64 `json:"makespan"`
	// Slowdowns and Unfairness are only set when ComputeOwn was requested.
	Slowdowns  []float64 `json:"slowdowns,omitempty"`
	Unfairness *float64  `json:"unfairness,omitempty"`
	// Summary aggregates utilization/efficiency statistics.
	Summary trace.Summary `json:"summary"`
	// Utilization lists per-cluster busy fractions.
	Utilization []trace.ClusterUtilization `json:"utilization"`
	// ElapsedMS is the worker-side execution time in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// scheduleScenario is a ScheduleRequest resolved against the registries.
type scheduleScenario struct {
	pf     *platform.Platform
	family daggen.Family
	strat  strategy.Strategy
	count  int
	opts   mapping.Options
}

// orDefault returns name, or def for the empty string.
func orDefault(name, def string) string {
	if name == "" {
		return def
	}
	return name
}

// resolveStrategy resolves a request's strategy name (default WPS-work)
// and optional µ override against the batch's family.
func resolveStrategy(name string, mu *float64, fam daggen.Family) (strategy.Strategy, error) {
	m := -1.0
	if mu != nil {
		m = *mu
	}
	return strategy.ByName(orDefault(name, "WPS-work"), m, fam)
}

// resolveCount applies the batch-size default (4) and the cap every
// endpoint shares, MaxCampaignNPTGs.
func resolveCount(count int) (int, error) {
	if count == 0 {
		count = 4
	}
	if count < 1 || count > MaxCampaignNPTGs {
		return 0, fmt.Errorf("service: count %d outside [1,%d]", count, MaxCampaignNPTGs)
	}
	return count, nil
}

// resolve validates the request and resolves names; it runs on the caller's
// goroutine so malformed requests fail fast without a queue slot.
func (r ScheduleRequest) resolve() (scheduleScenario, error) {
	var sc scheduleScenario
	pf, err := platform.ByName(orDefault(r.Platform, "rennes"))
	if err != nil {
		return sc, err
	}
	fam, err := daggen.FamilyByName(orDefault(r.Family, "random"))
	if err != nil {
		return sc, err
	}
	strat, err := resolveStrategy(r.Strategy, r.Mu, fam)
	if err != nil {
		return sc, err
	}
	count, err := resolveCount(r.Count)
	if err != nil {
		return sc, err
	}
	var opts mapping.Options
	switch r.Ordering {
	case "", "ready":
	case "global":
		opts.Ordering = mapping.Global
	default:
		return sc, fmt.Errorf("service: unknown ordering %q (want ready or global)", r.Ordering)
	}
	opts.NoPacking = r.NoPacking
	return scheduleScenario{pf: pf, family: fam, strat: strat, count: count, opts: opts}, nil
}

// Schedule runs one offline batch-scheduling request through the worker
// pool. It is safe for concurrent use.
func (s *Service) Schedule(ctx context.Context, req ScheduleRequest) (*ScheduleResponse, error) {
	sc, err := req.resolve()
	if err != nil {
		return nil, s.invalid(err)
	}
	return submit[ScheduleResponse](ctx, s, "schedule", func(ws *scratch) (any, error) {
		started := time.Now()
		r := rand.New(rand.NewSource(req.Seed))
		graphs := make([]*dag.Graph, sc.count)
		for i := range graphs {
			graphs[i] = daggen.Generate(sc.family, r)
		}
		sched := core.New(sc.pf)
		sched.MapOptions = sc.opts

		var own []float64
		if req.ComputeOwn {
			own = make([]float64, len(graphs))
			for i, g := range graphs {
				own[i] = sched.ScheduleAloneWith(ws.core, g)
			}
		}
		// res is scratch-owned. Betas is the strategy's fresh slice; the
		// makespans live in the executor's buffers and are copied out.
		res := sched.ScheduleWith(ws.core, graphs, sc.strat)
		out := &ScheduleResponse{
			Platform:     sc.pf.Name,
			Strategy:     sc.strat.Name(),
			Count:        sc.count,
			Betas:        res.Betas,
			AppMakespans: slices.Clone(res.Exec.AppMakespans),
			Makespan:     res.GlobalMakespan(),
			Summary:      trace.Summarize(res.Schedule),
			Utilization:  trace.Utilization(res.Schedule),
		}
		if own != nil {
			ev := res.Evaluate(own)
			out.Slowdowns = ev.Slowdowns
			unf := ev.Unfairness
			out.Unfairness = &unf
		}
		out.ElapsedMS = float64(time.Since(started).Microseconds()) / 1e3
		return out, nil
	})
}

// OnlineRequest describes one online (dynamic-arrivals) scheduling request:
// generate a workload of Count PTGs arriving by Process and schedule it with
// the §8 online rebalancing scheduler.
type OnlineRequest struct {
	Platform string `json:"platform,omitempty"`
	Family   string `json:"family,omitempty"`
	// Count is the number of applications; default 4.
	Count int `json:"count,omitempty"`
	// Process is the arrival process: burst, poisson (default) or uniform.
	Process string `json:"process,omitempty"`
	// Rate is the arrival rate in applications/second; default 0.25.
	Rate     float64  `json:"rate,omitempty"`
	Strategy string   `json:"strategy,omitempty"`
	Mu       *float64 `json:"mu,omitempty"`
	Seed     int64    `json:"seed,omitempty"`
	// NoRebalanceOnCompletion keeps constraints until the next arrival.
	NoRebalanceOnCompletion bool `json:"no_rebalance_on_completion,omitempty"`
}

// OnlineResponse reports one online run.
type OnlineResponse struct {
	Platform string `json:"platform"`
	Strategy string `json:"strategy"`
	Count    int    `json:"count"`
	// Makespan is the completion time of the last application (s).
	Makespan float64 `json:"makespan"`
	// FlowTimes are per-application sojourn times (s), in arrival order.
	FlowTimes []float64 `json:"flow_times"`
	// MeanFlowTime averages FlowTimes.
	MeanFlowTime float64 `json:"mean_flow_time"`
	// Rebalances counts constraint recomputations.
	Rebalances int     `json:"rebalances"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// Online runs one dynamic-arrivals request through the worker pool. It is
// safe for concurrent use.
func (s *Service) Online(ctx context.Context, req OnlineRequest) (*OnlineResponse, error) {
	spec, pf, strat, err := req.resolve()
	if err != nil {
		return nil, s.invalid(err)
	}
	return submit[OnlineResponse](ctx, s, "online", func(ws *scratch) (any, error) {
		started := time.Now()
		r := rand.New(rand.NewSource(req.Seed))
		arrivals := workload.Generate(spec, r)
		res := online.ScheduleWith(ws.online, pf, arrivals, online.Options{
			Strategy:                strat,
			NoRebalanceOnCompletion: req.NoRebalanceOnCompletion,
		})
		out := &OnlineResponse{
			Platform:   pf.Name,
			Strategy:   strat.Name(),
			Count:      spec.Count,
			Makespan:   res.Makespan,
			FlowTimes:  make([]float64, len(res.Apps)),
			Rebalances: res.Rebalances,
		}
		for i, app := range res.Apps {
			out.FlowTimes[i] = app.FlowTime()
			out.MeanFlowTime += app.FlowTime()
		}
		if len(res.Apps) > 0 {
			out.MeanFlowTime /= float64(len(res.Apps))
		}
		out.ElapsedMS = float64(time.Since(started).Microseconds()) / 1e3
		return out, nil
	})
}

// resolveSpec validates the workload fields shared by the online and
// workload requests; empty strings and zero values take the defaults
// (random family, poisson at 0.25/s, 4 applications).
func resolveSpec(family string, count int, process string, rate float64) (workload.Spec, error) {
	var spec workload.Spec
	fam, err := daggen.FamilyByName(orDefault(family, "random"))
	if err != nil {
		return spec, err
	}
	proc, err := workload.ProcessByName(orDefault(process, "poisson"))
	if err != nil {
		return spec, err
	}
	if count, err = resolveCount(count); err != nil {
		return spec, err
	}
	if rate == 0 {
		rate = 0.25
	}
	if proc != workload.Burst && rate <= 0 {
		return spec, fmt.Errorf("service: rate %g must be positive for a timed process", rate)
	}
	return workload.Spec{Family: fam, Count: count, Process: proc, Rate: rate}, nil
}

// resolve validates an OnlineRequest.
func (r OnlineRequest) resolve() (spec workload.Spec, pf *platform.Platform, strat strategy.Strategy, err error) {
	if spec, err = resolveSpec(r.Family, r.Count, r.Process, r.Rate); err != nil {
		return
	}
	if pf, err = platform.ByName(orDefault(r.Platform, "rennes")); err != nil {
		return
	}
	strat, err = resolveStrategy(r.Strategy, r.Mu, spec.Family)
	return
}

// WorkloadRequest describes one workload-generation request: draw a
// submission workload and report per-application structure, without
// scheduling it.
type WorkloadRequest struct {
	Family  string  `json:"family,omitempty"`
	Count   int     `json:"count,omitempty"`
	Process string  `json:"process,omitempty"`
	Rate    float64 `json:"rate,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
}

// WorkloadApp summarizes one generated application.
type WorkloadApp struct {
	At        float64 `json:"at"`
	Name      string  `json:"name"`
	Tasks     int     `json:"tasks"`
	Edges     int     `json:"edges"`
	Depth     int     `json:"depth"`
	Width     int     `json:"width"`
	WorkGFlop float64 `json:"work_gflop"`
}

// WorkloadResponse reports one generated workload.
type WorkloadResponse struct {
	Apps []WorkloadApp `json:"apps"`
	// Span is the time of the last arrival (s).
	Span      float64 `json:"span"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Workload runs one workload-generation request through the worker pool.
// It is safe for concurrent use.
func (s *Service) Workload(ctx context.Context, req WorkloadRequest) (*WorkloadResponse, error) {
	spec, err := resolveSpec(req.Family, req.Count, req.Process, req.Rate)
	if err != nil {
		return nil, s.invalid(err)
	}
	return submit[WorkloadResponse](ctx, s, "workload", func(*scratch) (any, error) {
		started := time.Now()
		r := rand.New(rand.NewSource(req.Seed))
		arrivals := workload.Generate(spec, r)
		out := &WorkloadResponse{Apps: make([]WorkloadApp, len(arrivals))}
		for i, a := range arrivals {
			st := a.Graph.ComputeStats()
			out.Apps[i] = WorkloadApp{
				At:        a.At,
				Name:      a.Graph.Name,
				Tasks:     st.Tasks,
				Edges:     st.Edges,
				Depth:     st.Depth,
				Width:     st.MaxWidth,
				WorkGFlop: st.TotalWorkG,
			}
			if a.At > out.Span {
				out.Span = a.At
			}
		}
		out.ElapsedMS = float64(time.Since(started).Microseconds()) / 1e3
		return out, nil
	})
}

// counters is the service's internal atomic instrumentation.
type counters struct {
	accepted  atomic.Uint64
	rejected  atomic.Uint64
	invalid   atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	expired   atomic.Uint64
	inFlight  atomic.Int64

	busyNanos      atomic.Int64
	queueWaitNanos atomic.Int64

	// completedBy counts completions per request kind, indexed like kinds.
	completedBy [len(kinds)]atomic.Uint64
}

// kinds lists the request kinds, the keys of Stats.CompletedByKind.
var kinds = [...]string{"schedule", "online", "workload", "campaign", "job"}

// byKind maps a request kind to its completion counter.
func (c *counters) byKind(kind string) *atomic.Uint64 {
	for i, k := range kinds {
		if k == kind {
			return &c.completedBy[i]
		}
	}
	panic(fmt.Sprintf("service: unknown request kind %q", kind))
}

// Stats is a point-in-time snapshot of the service's instrumentation, the
// payload of ptgserve's /v1/stats endpoint (and, reformatted, /metrics).
type Stats struct {
	// Workers and QueueDepth echo the effective options.
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	// Accepted counts requests that obtained a queue slot; Rejected those
	// refused by a full queue or a closed service; Invalid those failing
	// validation before queuing.
	Accepted uint64 `json:"accepted"`
	Rejected uint64 `json:"rejected"`
	Invalid  uint64 `json:"invalid"`
	// Completed, Failed and Expired partition accepted requests exactly
	// (once drained): an accepted request is counted under whichever fate
	// settles first — successful execution, failed execution, or the
	// client giving up (timeout or cancellation) before the result was
	// delivered.
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Expired   uint64 `json:"expired"`
	// InFlight and Queued describe the instantaneous load.
	InFlight int64 `json:"in_flight"`
	Queued   int   `json:"queued"`
	// CompletedByKind breaks Completed down per request type.
	CompletedByKind map[string]uint64 `json:"completed_by_kind"`
	// BusySeconds is cumulative worker execution time; MeanLatencyMS and
	// MeanQueueWaitMS are derived per completed-or-failed execution.
	BusySeconds     float64 `json:"busy_seconds"`
	MeanLatencyMS   float64 `json:"mean_latency_ms"`
	MeanQueueWaitMS float64 `json:"mean_queue_wait_ms"`
	// UptimeSeconds is time since New.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// CacheHits, CacheMisses and CacheVerifyFailures mirror the attached
	// content-addressed cache's counters (all zero without Options.Cache):
	// points served from verified cache entries, points computed fresh,
	// and corrupted cache records detected and excluded on read.
	CacheHits           uint64 `json:"cache_hits"`
	CacheMisses         uint64 `json:"cache_misses"`
	CacheVerifyFailures uint64 `json:"cache_verify_failures"`
}

// Stats snapshots the service counters. Counters are read individually
// without a global lock, so a snapshot taken under load is internally
// consistent only up to in-flight increments — fine for monitoring.
func (s *Service) Stats() Stats {
	st := Stats{
		Workers:         s.opts.Workers,
		QueueDepth:      s.opts.QueueDepth,
		Accepted:        s.stats.accepted.Load(),
		Rejected:        s.stats.rejected.Load(),
		Invalid:         s.stats.invalid.Load(),
		Completed:       s.stats.completed.Load(),
		Failed:          s.stats.failed.Load(),
		Expired:         s.stats.expired.Load(),
		InFlight:        s.stats.inFlight.Load(),
		Queued:          len(s.queue),
		CompletedByKind: make(map[string]uint64, len(kinds)),
		BusySeconds:     float64(s.stats.busyNanos.Load()) / 1e9,
		UptimeSeconds:   time.Since(s.start).Seconds(),
	}
	for _, k := range kinds {
		st.CompletedByKind[k] = s.stats.byKind(k).Load()
	}
	if ran := st.Completed + st.Failed; ran > 0 {
		st.MeanLatencyMS = float64(s.stats.busyNanos.Load()) / 1e6 / float64(ran)
		st.MeanQueueWaitMS = float64(s.stats.queueWaitNanos.Load()) / 1e6 / float64(ran)
	}
	if s.opts.Cache != nil {
		cs := s.opts.Cache.Stats()
		st.CacheHits, st.CacheMisses, st.CacheVerifyFailures = cs.Hits, cs.Misses, cs.VerifyFailures
	}
	return st
}

// memoFor binds the attached cache to one expansion, refreshing the cache
// first so entries published by other processes sharing the directory
// (fleet workers, earlier jobs) are visible to this sweep. Nil without a
// cache; a failed refresh is not fatal — it only costs cache hits.
func (s *Service) memoFor(e *scenario.Expansion) scenario.Memo {
	if s.opts.Cache == nil {
		return nil
	}
	_ = s.opts.Cache.Refresh()
	return s.opts.Cache.Bind(e)
}

// Health is the payload of GET /v1/healthz: liveness plus the load facts
// a fleet coordinator needs to pick among workers.
type Health struct {
	// Status is "ok" for a serving instance, "draining" after Close.
	Status string `json:"status"`
	// Name echoes Options.Name, the worker's fleet identity.
	Name string `json:"name,omitempty"`
	// Workers and QueueDepth echo the effective options; Queued and
	// InFlight describe the instantaneous load.
	Workers       int     `json:"workers"`
	QueueDepth    int     `json:"queue_depth"`
	Queued        int     `json:"queued"`
	InFlight      int64   `json:"in_flight"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Health snapshots the service's health view. Safe for concurrent use.
func (s *Service) Health() Health {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	h := Health{
		Status:        "ok",
		Name:          s.opts.Name,
		Workers:       s.opts.Workers,
		QueueDepth:    s.opts.QueueDepth,
		Queued:        len(s.queue),
		InFlight:      s.stats.inFlight.Load(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if closed {
		h.Status = "draining"
	}
	return h
}

// RetryAfterSeconds derives the Retry-After hint a throttled (429/503)
// response carries from the current backlog: the queued plus in-flight
// requests, each costing the observed mean execution latency, spread over
// the worker pool — clamped to [1, 60] seconds so clients neither
// hot-spin on a deep queue nor stall on a hostile estimate. With no
// latency history yet it falls back to the floor.
func (s *Service) RetryAfterSeconds() int {
	backlog := int64(len(s.queue)) + s.stats.inFlight.Load()
	if backlog <= 0 {
		return 1
	}
	ran := s.stats.completed.Load() + s.stats.failed.Load()
	if ran == 0 {
		return 1
	}
	meanNanos := float64(s.stats.busyNanos.Load()) / float64(ran)
	secs := int(math.Ceil(float64(backlog) * meanNanos / float64(s.opts.Workers) / 1e9))
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}
