package coord

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"ptgsched/internal/cache"
	"ptgsched/internal/scenario"
	"ptgsched/internal/service"
)

// maxShardAttempts bounds how many times one shard may *fail* (failed job,
// evicted job, stall) before the campaign errors out — a poisoned shard
// must not ping-pong across the fleet forever. Worker deaths do not count:
// they are the fleet's fault, not the shard's.
const maxShardAttempts = 3

// Options configures a Coordinator.
type Options struct {
	// Shards is the number of leases the campaign is split into; default
	// one per worker (clamped to the expansion cardinality). More shards
	// than workers means finer-grained reassignment at the cost of more
	// dispatches. Each lease is one job, swept on one worker core, so
	// more shards is also how a campaign uses more of the fleet's cores.
	Shards int
	// PollInterval paces the progress polls; default 500ms.
	PollInterval time.Duration
	// StallTimeout declares a running lease stalled when its completed
	// count has not moved for this long: the job is canceled best-effort
	// and the lease reassigned. Default 2m.
	StallTimeout time.Duration
	// Client holds every per-worker client's test seams: the
	// fault-injection transport (one for the whole fleet, which may route
	// by request host) and the backoff sleep.
	Client ClientOptions
	// Logf, when set, receives progress and failure-handling notes
	// (dispatches, deaths, reassignments). Nil is silent.
	Logf func(format string, args ...any)
	// Cache, when set, is the fleet's shared content-addressed cache:
	// before any lease is dispatched the coordinator absorbs every
	// verified cache entry straight into the aggregation — a fully
	// cached shard is retired without touching a worker — and every
	// result merged back from the fleet is published into the cache.
	// Workers pointed at the same directory (ptgserve -cache) further
	// skip each other's points inside their own sweeps, so a reassigned
	// shard only recomputes what its dead owner never published.
	Cache *cache.Cache
}

func (o Options) withDefaults(workers, points int) Options {
	if o.Shards <= 0 {
		o.Shards = workers
	}
	if o.Shards > points {
		o.Shards = points
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 500 * time.Millisecond
	}
	if o.StallTimeout <= 0 {
		o.StallTimeout = 2 * time.Minute
	}
	return o
}

// Counters is the coordinator's robustness instrumentation. All fields
// are atomic; snapshot with Snapshot.
type Counters struct {
	dispatches    atomic.Int64
	cacheSeeded   atomic.Int64
	retries       atomic.Int64
	reassignments atomic.Int64
	workerDeaths  atomic.Int64
	duplicates    atomic.Int64
	merged        atomic.Int64
}

// CountersSnapshot is the JSON view of the counters, the payload fleet
// stats surfaces (the coordinator's /v1/stats, the benchmark's coord.*
// metrics).
type CountersSnapshot struct {
	// Dispatches counts shard-lease job submissions (including
	// re-dispatches after failures).
	Dispatches int64 `json:"dispatches"`
	// Retries counts backoff-retried HTTP attempts across all workers.
	Retries int64 `json:"retries"`
	// Reassignments counts leases moved off a worker involuntarily
	// (death, stall, evicted job).
	Reassignments int64 `json:"reassignments"`
	// WorkerDeaths counts alive→dead transitions (a worker dying twice
	// counts twice).
	WorkerDeaths int64 `json:"worker_deaths"`
	// DuplicatePoints counts re-fetched results skipped by the dedup
	// bitmap — the price of re-executing reassigned shards.
	DuplicatePoints int64 `json:"duplicate_points"`
	// MergedPoints counts unique results absorbed into the aggregation.
	MergedPoints int64 `json:"merged_points"`
	// CacheSeededPoints counts points absorbed from the shared cache
	// before dispatch — work the fleet never had to do.
	CacheSeededPoints int64 `json:"cache_seeded_points"`
}

// Snapshot reads the counters.
func (c *Counters) Snapshot() CountersSnapshot {
	return CountersSnapshot{
		Dispatches:        c.dispatches.Load(),
		Retries:           c.retries.Load(),
		Reassignments:     c.reassignments.Load(),
		WorkerDeaths:      c.workerDeaths.Load(),
		DuplicatePoints:   c.duplicates.Load(),
		MergedPoints:      c.merged.Load(),
		CacheSeededPoints: c.cacheSeeded.Load(),
	}
}

// Lease states.
const (
	LeasePending = "pending" // waiting for a worker
	LeaseRunning = "running" // dispatched, being polled
	LeaseMerged  = "merged"  // every point absorbed into the aggregation
)

// lease is one shard's dispatch state.
type lease struct {
	shard    int
	set      scenario.IndexSet
	state    string
	worker   *worker // nil unless running
	jobID    string
	attempts int     // shard-fault count (not worker deaths)
	avoid    *worker // last worker this lease failed on

	lastCompleted int
	lastChange    time.Time
}

// worker is one fleet member.
type worker struct {
	addr   string
	client *Client
	alive  bool
	active int // running leases
}

// Coordinator drives one campaign over a worker fleet. Create with New,
// run with Run. The stats accessors (Counters, Progress) are safe to call
// concurrently with Run; everything else is Run's.
type Coordinator struct {
	e        *scenario.Expansion
	specJSON []byte
	opts     Options
	workers  []*worker
	leases   []*lease
	counters Counters
	memo     scenario.Memo

	agg *scenario.Aggregator

	// leasesMerged mirrors merged lease states for concurrent readers.
	leasesMerged atomic.Int64
}

// New validates the campaign spec, expands it locally (the coordinator
// needs the expansion for lease arithmetic and the final aggregation) and
// prepares one client per worker address. The raw spec bytes are
// forwarded to workers verbatim, so the content digest — and therefore
// every congruence check down the pipeline — matches by construction.
func New(specJSON []byte, workers []string, opts Options) (*Coordinator, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("coord: no workers")
	}
	spec, err := scenario.ParseSpec(specJSON)
	if err != nil {
		return nil, err
	}
	e, err := scenario.Expand(spec)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults(len(workers), e.NumPoints())
	c := &Coordinator{e: e, specJSON: specJSON, opts: opts}
	if opts.Cache != nil {
		c.memo = opts.Cache.Bind(e)
	}
	for _, addr := range workers {
		cl, err := NewClient(addr, opts.Client)
		if err != nil {
			return nil, err
		}
		cl.retries = func() { c.counters.retries.Add(1) }
		c.workers = append(c.workers, &worker{addr: cl.Base(), client: cl, alive: true})
	}
	for i := 0; i < opts.Shards; i++ {
		set, err := e.Shard(i, opts.Shards)
		if err != nil {
			return nil, err
		}
		c.leases = append(c.leases, &lease{shard: i, set: set, state: LeasePending})
	}
	return c, nil
}

// NumPoints returns the campaign's expansion cardinality.
func (c *Coordinator) NumPoints() int { return c.e.NumPoints() }

// Expansion returns the locally-expanded campaign (for rendering the
// final tables the same way an unsharded run would).
func (c *Coordinator) Expansion() *scenario.Expansion { return c.e }

// Counters snapshots the robustness counters.
func (c *Coordinator) Counters() CountersSnapshot { return c.counters.Snapshot() }

// Progress is a point-in-time fleet view.
type Progress struct {
	// Points and MergedPoints count the campaign's unique results.
	Points       int `json:"points"`
	MergedPoints int `json:"merged_points"`
	// Shards and MergedShards count leases.
	Shards       int `json:"shards"`
	MergedShards int `json:"merged_shards"`
}

// Progress snapshots completion. Safe concurrently with Run.
func (c *Coordinator) Progress() Progress {
	return Progress{
		Points:       c.e.NumPoints(),
		MergedPoints: int(c.counters.merged.Load() + c.counters.cacheSeeded.Load()),
		Shards:       len(c.leases),
		MergedShards: int(c.leasesMerged.Load()),
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// Run drives every lease to completion and returns the aggregated tables,
// bit-identical to an unsharded local run. It returns an error when the
// context dies, when a shard exhausts maxShardAttempts, or when every
// worker is unreachable and a probe round revives none — never by
// hanging. Call it once per Coordinator. However the context's death is
// noticed — between polls, or inside a dispatch or a poll — every running
// lease's job is canceled on its worker before Run returns.
func (c *Coordinator) Run(ctx context.Context) ([]scenario.Table, error) {
	defer func() {
		if ctx.Err() != nil {
			c.cancelRunning()
		}
	}()
	c.agg = c.e.NewAggregator()
	if err := c.seedFromCache(); err != nil {
		return nil, err
	}
	for {
		if int(c.leasesMerged.Load()) == len(c.leases) {
			return c.agg.Tables()
		}
		if err := c.dispatch(ctx); err != nil {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(c.opts.PollInterval):
		}
		if err := c.poll(ctx); err != nil {
			return nil, err
		}
	}
}

// seedFromCache absorbs every verified cache entry into the aggregation
// before the first dispatch and retires leases whose every point was
// cached: the second coordinator to sweep a popular spec region pays
// nothing for the overlap. Partially cached leases are still dispatched
// whole — the dedup bitmap drops the worker's duplicates on merge.
func (c *Coordinator) seedFromCache() error {
	if c.memo == nil {
		return nil
	}
	_ = c.opts.Cache.Refresh() // see what other processes published; best-effort
	for _, l := range c.leases {
		cached := 0
		for j := 0; j < l.set.Len(); j++ {
			p := c.e.PointAt(l.set.At(j))
			r, ok := c.memo.Lookup(p)
			if !ok {
				continue
			}
			if err := c.agg.Add(r); err != nil {
				return err
			}
			c.counters.cacheSeeded.Add(1)
			cached++
		}
		if cached == l.set.Len() {
			l.state = LeaseMerged
			c.leasesMerged.Add(1)
			c.logf("coord: shard %d/%d served entirely from cache (%d points)",
				l.shard, len(c.leases), cached)
		}
	}
	return nil
}

// dispatch assigns every pending lease to the least-loaded live worker.
func (c *Coordinator) dispatch(ctx context.Context) error {
	for _, l := range c.leases {
		if l.state != LeasePending {
			continue
		}
	assign:
		for {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w := c.pickWorker(l.avoid)
			if w == nil {
				if !c.probeDead(ctx) {
					return c.allDeadError()
				}
				continue
			}
			st, err := w.client.SubmitJob(ctx, service.JobRequest{
				Spec:  c.specJSON,
				Shard: fmt.Sprintf("%d/%d", l.shard, len(c.leases)),
			})
			switch {
			case err == nil:
				l.state, l.worker, l.jobID = LeaseRunning, w, st.ID
				l.lastCompleted, l.lastChange = st.Completed, time.Now()
				w.active++
				c.counters.dispatches.Add(1)
				c.logf("coord: shard %d/%d leased to %s as %s", l.shard, len(c.leases), w.addr, st.ID)
				break assign
			case hasStatus(err, http.StatusTooManyRequests):
				// The worker is full, not broken: leave the lease pending
				// and try again next round (the backoff already honored
				// its Retry-After).
				c.logf("coord: %s throttled shard %d, retrying next round", w.addr, l.shard)
				break assign
			case isPermanent(err):
				// The worker understood the request and said no (e.g. a
				// validation failure): no other worker will answer
				// differently, so fail the campaign with the reason.
				return fmt.Errorf("coord: worker %s rejected shard %d/%d: %w", w.addr, l.shard, len(c.leases), err)
			case ctx.Err() != nil:
				// The caller's cancel stopped the submit's retries; the
				// worker is not at fault.
				return ctx.Err()
			default:
				c.markDead(w, err)
			}
		}
	}
	return nil
}

// poll advances every running lease: merge finished jobs, requeue failed
// ones, detect death and stalls.
func (c *Coordinator) poll(ctx context.Context) error {
	for _, l := range c.leases {
		if l.state != LeaseRunning {
			continue
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w := l.worker
		st, err := w.client.JobStatus(ctx, l.jobID)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			switch {
			case hasStatus(err, http.StatusNotFound):
				// A live worker that lost the job (restart, eviction):
				// the shard must rerun somewhere.
				if err := c.retryShard(l, fmt.Errorf("job %s vanished", l.jobID)); err != nil {
					return err
				}
			case isPermanent(err):
				return fmt.Errorf("coord: polling shard %d on %s: %w", l.shard, w.addr, err)
			default:
				c.markDead(w, err)
			}
			continue
		}
		var fault error
		switch st.State {
		case service.JobDone:
			if err := c.merge(ctx, l, st); err != nil {
				return err
			}
		case service.JobFailed:
			fault = fmt.Errorf("worker %s: %s", w.addr, st.Error)
		case service.JobCanceled:
			fault = fmt.Errorf("job canceled externally")
		default: // queued or running: stall detection
			if st.Completed != l.lastCompleted {
				l.lastCompleted, l.lastChange = st.Completed, time.Now()
			} else if time.Since(l.lastChange) > c.opts.StallTimeout {
				// Best-effort cancel; the dedup bitmap protects against
				// the stalled job finishing anyway.
				cancelCtx, cancel := context.WithTimeout(ctx, c.opts.PollInterval)
				_ = w.client.CancelJob(cancelCtx, l.jobID)
				cancel()
				fault = fmt.Errorf("stalled at %d/%d points", st.Completed, st.Points)
			}
		}
		if fault != nil {
			if err := c.retryShard(l, fault); err != nil {
				return err
			}
		}
	}
	return nil
}

// merge streams a finished lease's results through the dedup bitmap into
// the aggregator. A mid-stream failure leaves the lease running — the
// next poll sees state done again and re-fetches, skipping what already
// landed; if the worker died instead, the poll's error path reassigns.
func (c *Coordinator) merge(ctx context.Context, l *lease, st *service.JobStatus) error {
	var addErr error
	err := l.worker.client.JobResults(ctx, l.jobID, func(r scenario.PointResult) error {
		if r.Index < 0 || r.Index >= c.e.NumPoints() {
			addErr = fmt.Errorf("coord: result index %d outside expansion", r.Index)
			return addErr
		}
		if c.agg.Seen(r.Index) {
			c.counters.duplicates.Add(1)
			return nil
		}
		if addErr = c.agg.Add(r); addErr != nil {
			return addErr
		}
		c.counters.merged.Add(1)
		if c.memo != nil {
			c.memo.Publish(c.e.PointAt(r.Index), r)
		}
		return nil
	})
	if addErr != nil {
		// The stream delivered a result the expansion rejects (stale or
		// corrupt worker): not recoverable by retrying.
		return addErr
	}
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if hasStatus(err, http.StatusNotFound) {
			return c.retryShard(l, fmt.Errorf("results of job %s vanished", l.jobID))
		}
		if isPermanent(err) {
			return fmt.Errorf("coord: fetching shard %d results from %s: %w", l.shard, l.worker.addr, err)
		}
		c.markDead(l.worker, err)
		return nil
	}
	// The stream completed: the lease is merged only if every one of its
	// points has landed (across this fetch and any earlier partial ones).
	missing := 0
	for j := 0; j < l.set.Len(); j++ {
		if !c.agg.Seen(l.set.At(j)) {
			missing++
		}
	}
	if missing > 0 {
		// A done job must have streamed its whole shard; treat the gap
		// like a failure so a truncating worker cannot wedge the run.
		return c.retryShard(l, fmt.Errorf("done job streamed %d points short", missing))
	}
	l.state = LeaseMerged
	l.worker.active--
	l.worker = nil
	c.leasesMerged.Add(1)
	c.logf("coord: shard %d/%d merged (%d/%d points)",
		l.shard, len(c.leases), c.counters.merged.Load()+c.counters.cacheSeeded.Load(), c.e.NumPoints())
	return nil
}

// retryShard counts fault against l's shard and requeues the lease, or
// fails the campaign with it once the shard has burned its attempts.
func (c *Coordinator) retryShard(l *lease, fault error) error {
	l.attempts++
	if l.attempts >= maxShardAttempts {
		return fmt.Errorf("coord: shard %d/%d failed %d times, giving up: %w",
			l.shard, len(c.leases), l.attempts, fault)
	}
	c.requeue(l, "shard %d on %s: %v (attempt %d/%d), reassigning",
		l.shard, l.worker.addr, fault, l.attempts, maxShardAttempts)
	return nil
}

// requeue returns a running lease to pending, remembering the worker it
// failed on so redispatch prefers somewhere else.
func (c *Coordinator) requeue(l *lease, format string, args ...any) {
	if l.worker != nil {
		l.worker.active--
		l.avoid, l.worker = l.worker, nil
	}
	l.state, l.jobID = LeasePending, ""
	c.counters.reassignments.Add(1)
	c.logf("coord: "+format, args...)
}

// markDead transitions a worker to dead and requeues its leases.
func (c *Coordinator) markDead(w *worker, cause error) {
	if !w.alive {
		return
	}
	w.alive = false
	c.counters.workerDeaths.Add(1)
	c.logf("coord: worker %s is dead: %v", w.addr, cause)
	for _, l := range c.leases {
		if l.state == LeaseRunning && l.worker == w {
			c.requeue(l, "shard %d reassigned off dead worker %s", l.shard, w.addr)
		}
	}
}

// pickWorker returns the live worker with the fewest running leases,
// preferring anyone over avoid — a lease must not ping-pong back onto the
// worker it just failed on while healthier ones are available. When avoid
// is the only live worker it is still eligible (better a suspect worker
// than a stuck campaign).
func (c *Coordinator) pickWorker(avoid *worker) *worker {
	var best, fallback *worker
	for _, w := range c.workers {
		if !w.alive {
			continue
		}
		if w == avoid {
			fallback = w
			continue
		}
		if best == nil || w.active < best.active {
			best = w
		}
	}
	if best == nil {
		return fallback
	}
	return best
}

// probeDead single-shots every dead worker's health endpoint and revives
// responders. Reports whether any worker is now alive.
func (c *Coordinator) probeDead(ctx context.Context) bool {
	revived := false
	for _, w := range c.workers {
		if w.alive {
			revived = true
			continue
		}
		if err := w.client.Probe(ctx); err == nil {
			w.alive = true
			revived = true
			c.logf("coord: worker %s is back", w.addr)
		}
	}
	return revived
}

// allDeadError is the fully-partitioned verdict: every worker
// unreachable, pending work left.
func (c *Coordinator) allDeadError() error {
	pending := 0
	for _, l := range c.leases {
		if l.state != LeaseMerged {
			pending++
		}
	}
	addrs := make([]string, len(c.workers))
	for i, w := range c.workers {
		addrs[i] = w.addr
	}
	return fmt.Errorf("coord: all %d workers unreachable (%v) with %d of %d shards incomplete — fleet fully partitioned",
		len(c.workers), addrs, pending, len(c.leases))
}

// cancelRunning best-effort cancels every running lease's job (Run calls
// it when the caller's context dies). A submit the cancel lands on still
// reads its answer (see Client.retry), so every job the run started has a
// running lease.
func (c *Coordinator) cancelRunning() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, l := range c.leases {
		if l.state == LeaseRunning && l.worker != nil {
			_ = l.worker.client.CancelJob(ctx, l.jobID)
		}
	}
}

// hasStatus reports whether err is (or wraps) a worker's answer with
// status: a 404 for a job or results the worker lost, a 429 for a full
// queue or job registry.
func hasStatus(err error, status int) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Status == status
}

// isPermanent reports an error retrying cannot fix: a non-retryable,
// non-throttle HTTP status (validation failures, 404s on submit).
func isPermanent(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && !retryableStatus(se.Status)
}
