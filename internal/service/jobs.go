package service

// The asynchronous job subsystem: a campaign sweep too long for one
// synchronous HTTP request is submitted as a *job* — the submission
// validates and expands the spec, enqueues one execution onto the same
// bounded worker pool every other request shares, and returns immediately
// with a job id. The job's progress (completed/total points, per-shard
// state) is polled, its completed per-point results are streamed as JSONL
// with simple query filters while it runs, and a delete cancels it through
// its context. Results are never resident: each completed point is
// appended to a per-job spool file (one JSONL line per point, the
// campaign wire format), and the handle keeps only the line's offset and
// length plus a ready bit — 13 bytes per point — so job size is bounded
// by the admission limits and spool disk, not server memory. The durable,
// resumable on-disk counterpart of this subsystem is internal/store,
// which ptgbench drives for kill/resume workflows.

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ptgsched/internal/query"
	"ptgsched/internal/scenario"
)

// Job subsystem errors and caps.
var (
	// ErrJobNotFound is returned for an unknown job id. The HTTP layer
	// maps it to 404.
	ErrJobNotFound = errors.New("service: no such job")
	// ErrTooManyJobs is returned when the registry is full of live jobs;
	// the client should cancel or wait. The HTTP layer maps it to 429.
	ErrTooManyJobs = errors.New("service: too many active jobs")
)

const (
	// MaxJobs bounds the job registry: terminal jobs are evicted
	// oldest-first to admit new ones, but live jobs are never evicted.
	MaxJobs = 64
	// MaxJobShards bounds the progress-reporting partition of a job.
	MaxJobShards = 256
)

// The job size and backlog caps are configurable per Service — see
// Limits.JobPoints / Limits.JobBacklog and the DefaultMaxJob* constants
// in campaign.go.

// Job states.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// JobRequest describes one asynchronous campaign job.
type JobRequest struct {
	// Spec is the inline campaign spec (the scenario JSON format).
	Spec json.RawMessage `json:"spec"`
	// Shard, when set to "i/n", executes only that shard's points (the
	// scenario stride partition: point p belongs to shard p mod n) — the
	// lease a fleet coordinator dispatches to one worker. Empty runs the
	// whole expansion.
	Shard string `json:"shard,omitempty"`
	// Shards partitions progress reporting: point i belongs to shard
	// i mod Shards, exactly the scenario/store partition. Default 1.
	Shards int `json:"shards,omitempty"`
	// Workers bounds the job's intra-run parallelism; default 1 (a job
	// occupies one service worker). The server clamps it to GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
}

// JobShardState reports one shard's progress.
type JobShardState struct {
	Index     int `json:"index"`
	Points    int `json:"points"`
	Completed int `json:"completed"`
}

// JobStatus is a point-in-time snapshot of one job, the payload of
// GET /v1/jobs/{id}.
type JobStatus struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// State is queued, running, done, failed or canceled.
	State string `json:"state"`
	// SpecDigest identifies the campaign content (scenario.SpecDigest).
	SpecDigest string `json:"spec_digest"`
	// Shard echoes the request's shard selector ("i/n"), empty for a
	// whole-expansion job.
	Shard string `json:"shard,omitempty"`
	// Points is the number of points this job executes — the shard's
	// cardinality for a sharded job, the whole expansion otherwise;
	// Completed the number measured so far.
	Points    int `json:"points"`
	Completed int `json:"completed"`
	// Shards breaks Completed down by the modulo partition.
	Shards []JobShardState `json:"shards"`
	// Error carries the failure reason of a failed job.
	Error string `json:"error,omitempty"`
	// ElapsedMS is time spent executing so far (0 while queued).
	ElapsedMS float64 `json:"elapsed_ms"`
}

// jobHandle is the server-side state of one job.
type jobHandle struct {
	id string
	// seq is the registry's admission counter the id was formatted from;
	// ids stop sorting as strings at a million jobs, seq does not.
	seq      int
	name     string
	digest   string
	e        *scenario.Expansion
	set      scenario.IndexSet // the points this job executes
	shardSel string            // the request's shard selector, "" for all
	shards   int
	worker   int

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed when the job reaches a terminal state

	mu       sync.Mutex // guards state, err, started, finished
	state    string
	err      error
	started  time.Time
	finished time.Time

	completed  atomic.Int64
	perShard   []atomic.Int64
	shardSizes []int

	// The result spool: completed points are appended as JSONL lines to a
	// temp file instead of being held resident. offs/lens locate point
	// i's line; ready[i] publishes it to concurrent readers (release: the
	// line and its offsets are written before the ready bit is set).
	spoolMu     sync.Mutex
	spool       *os.File
	spoolEnd    int64
	spoolClosed bool
	offs        []int64
	lens        []int32
	ready       []atomic.Bool
}

// record spools one completed point result (worker side), encoding it
// into the calling slot's reusable line buffer (AppendJSONL is
// byte-identical to json.Marshal plus the newline). A record arriving
// after release (a point in flight when the job was canceled and dropped)
// is discarded silently.
func (h *jobHandle) record(r scenario.PointResult, buf *[]byte) error {
	line, err := scenario.AppendJSONL((*buf)[:0], r)
	if err != nil {
		return err
	}
	*buf = line
	h.spoolMu.Lock()
	if h.spoolClosed {
		h.spoolMu.Unlock()
		return nil
	}
	off := h.spoolEnd
	if _, err := h.spool.Write(line); err != nil {
		h.spoolMu.Unlock()
		return fmt.Errorf("service: spooling job point %d: %w", r.Index, err)
	}
	h.spoolEnd = off + int64(len(line))
	h.offs[r.Index] = off
	h.lens[r.Index] = int32(len(line))
	h.spoolMu.Unlock()

	h.ready[r.Index].Store(true) // release: readers Load before ReadAt
	h.perShard[r.Index%h.shards].Add(1)
	h.completed.Add(1)
	return nil
}

// release closes and deletes the spool file; the job's results are gone.
// Called when the job leaves the registry (cancel, eviction, Close).
func (h *jobHandle) release() {
	h.spoolMu.Lock()
	defer h.spoolMu.Unlock()
	if h.spoolClosed {
		return
	}
	h.spoolClosed = true
	if h.spool != nil {
		name := h.spool.Name()
		h.spool.Close()
		os.Remove(name)
	}
}

// readRecord fetches point i's spooled line. ok is false when the point
// is not ready yet; a released spool (the job was canceled, evicted or
// the service closed mid-stream) is an error, not a skip — a client must
// never receive a silently truncated stream that looks complete.
func (h *jobHandle) readRecord(i int) (line []byte, ok bool, err error) {
	if !h.ready[i].Load() {
		return nil, false, nil
	}
	h.spoolMu.Lock()
	defer h.spoolMu.Unlock()
	if h.spoolClosed {
		return nil, false, fmt.Errorf("%w: %q (results released mid-stream)", ErrJobNotFound, h.id)
	}
	line = make([]byte, h.lens[i])
	if _, err := h.spool.ReadAt(line, h.offs[i]); err != nil {
		return nil, false, fmt.Errorf("service: reading spooled job point %d: %w", i, err)
	}
	return line, true, nil
}

// status snapshots the handle.
func (h *jobHandle) status() *JobStatus {
	h.mu.Lock()
	state, err, started, finished := h.state, h.err, h.started, h.finished
	h.mu.Unlock()
	st := &JobStatus{
		ID:         h.id,
		Name:       h.name,
		State:      state,
		SpecDigest: h.digest,
		Shard:      h.shardSel,
		Points:     h.set.Len(),
		Completed:  int(h.completed.Load()),
	}
	if err != nil {
		st.Error = err.Error()
	}
	switch {
	case !finished.IsZero():
		st.ElapsedMS = float64(finished.Sub(started).Microseconds()) / 1e3
	case !started.IsZero():
		st.ElapsedMS = float64(time.Since(started).Microseconds()) / 1e3
	}
	for i := 0; i < h.shards; i++ {
		st.Shards = append(st.Shards, JobShardState{
			Index:     i,
			Points:    h.shardSizes[i],
			Completed: int(h.perShard[i].Load()),
		})
	}
	return st
}

// terminalState reports whether state is one a job never leaves.
func terminalState(state string) bool {
	return state == JobDone || state == JobFailed || state == JobCanceled
}

// setState transitions the handle; terminal states close done exactly once.
func (h *jobHandle) setState(state string, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if terminalState(h.state) {
		return
	}
	h.state = state
	if state == JobRunning {
		h.started = time.Now()
	} else if terminalState(state) {
		h.err = err
		h.finished = time.Now()
		if h.started.IsZero() {
			h.started = h.finished // canceled while still queued
		}
		close(h.done)
	}
}

// terminal reports whether the job has finished.
func (h *jobHandle) terminal() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return terminalState(h.state)
}

// jobRegistry owns the service's job handles.
type jobRegistry struct {
	mu   sync.Mutex
	byID map[string]*jobHandle
	seq  int
}

// add registers a handle under a fresh id, evicting the oldest terminal
// job (and its spool) if the registry is full; a registry full of live
// jobs, or one whose live jobs already hold backlogCap points, refuses.
func (reg *jobRegistry) add(h *jobHandle, backlogCap int) (string, error) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.byID == nil {
		reg.byID = make(map[string]*jobHandle)
	}
	live := 0
	for _, j := range reg.byID {
		if !j.terminal() {
			live += j.set.Len()
		}
	}
	if live+h.set.Len() > backlogCap {
		return "", fmt.Errorf("%w: %d points already queued or running, backlog cap is %d",
			ErrTooManyJobs, live, backlogCap)
	}
	if len(reg.byID) >= MaxJobs {
		var oldest *jobHandle
		for _, j := range reg.byID {
			if j.terminal() && (oldest == nil || j.seq < oldest.seq) {
				oldest = j
			}
		}
		if oldest == nil {
			return "", ErrTooManyJobs
		}
		oldest.release()
		delete(reg.byID, oldest.id)
	}
	reg.seq++
	h.seq, h.id = reg.seq, fmt.Sprintf("job-%06d", reg.seq)
	reg.byID[h.id] = h
	return h.id, nil
}

// get looks a handle up.
func (reg *jobRegistry) get(id string) (*jobHandle, error) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	h, ok := reg.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrJobNotFound, id)
	}
	return h, nil
}

// remove deletes a handle from the registry and releases its spool.
func (reg *jobRegistry) remove(id string) {
	reg.mu.Lock()
	h := reg.byID[id]
	delete(reg.byID, id)
	reg.mu.Unlock()
	if h != nil {
		h.release()
	}
}

// list snapshots all handles in admission order.
func (reg *jobRegistry) list() []*jobHandle {
	reg.mu.Lock()
	hs := make([]*jobHandle, 0, len(reg.byID))
	for _, h := range reg.byID {
		hs = append(hs, h)
	}
	reg.mu.Unlock()
	slices.SortFunc(hs, func(a, b *jobHandle) int { return cmp.Compare(a.seq, b.seq) })
	return hs
}

// resolve validates a job request against the campaign caps (minus the
// synchronous per-request point cap: jobs are bounded by
// Limits.JobPoints, which applies to the whole expansion even for a
// sharded job — the handle's per-point arrays are sized by the expansion).
func (r JobRequest) resolve(lim Limits) (*scenario.Expansion, scenario.IndexSet, int, int, error) {
	e, set, err := resolveSweep("job", r.Spec, r.Shard, lim.JobPoints, lim.JobPoints)
	if err != nil {
		return nil, set, 0, 0, err
	}
	shards := r.Shards
	if shards == 0 {
		shards = 1
	}
	if shards < 1 || shards > MaxJobShards || shards > set.Len() {
		return nil, scenario.IndexSet{}, 0, 0, fmt.Errorf("service: %d shards for %d points (cap %d)", shards, set.Len(), MaxJobShards)
	}
	return e, set, shards, clampWorkers(r.Workers), nil
}

// SubmitJob validates, expands and enqueues an asynchronous campaign job
// onto the service's bounded worker pool and returns its initial status
// immediately — the job id is the handle for polling (JobStatusByID),
// result streaming (JobResults) and cancellation (CancelJob). A full queue
// or a registry full of live jobs refuses the submission. Safe for
// concurrent use.
func (s *Service) SubmitJob(req JobRequest) (*JobStatus, error) {
	e, set, shards, workers, err := req.resolve(s.opts.Limits)
	if err != nil {
		return nil, s.invalid(err)
	}
	spool, err := os.CreateTemp("", "ptgsched-job-*.jsonl")
	if err != nil {
		return nil, fmt.Errorf("service: creating job result spool: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &jobHandle{
		name:       e.Spec.Name,
		digest:     e.Digest(),
		e:          e,
		set:        set,
		shardSel:   req.Shard,
		shards:     shards,
		worker:     workers,
		ctx:        ctx,
		cancel:     cancel,
		done:       make(chan struct{}),
		state:      JobQueued,
		perShard:   make([]atomic.Int64, shards),
		shardSizes: make([]int, shards),
		spool:      spool,
		offs:       make([]int64, e.NumPoints()),
		lens:       make([]int32, e.NumPoints()),
		ready:      make([]atomic.Bool, e.NumPoints()),
	}
	// Progress shards partition the *executed* set by global index modulo
	// Shards — for a whole-expansion job this is exactly the n/shards
	// (+1 for the first n mod shards) split of the stride partition.
	for j := 0; j < set.Len(); j++ {
		h.shardSizes[set.At(j)%shards]++
	}
	if _, err := s.jobs.add(h, s.opts.Limits.JobBacklog); err != nil {
		cancel()
		h.release()
		// A full registry or backlog is a rejection like a full queue:
		// count it so throttled submissions show up in /v1/stats.
		s.stats.rejected.Add(1)
		return nil, err
	}
	if err := s.enqueueJob(h); err != nil {
		s.jobs.remove(h.id) // remove releases the spool
		cancel()
		return nil, err
	}
	return h.status(), nil
}

// enqueueJob places the job's single pool entry on the queue synchronously
// (so a full queue refuses the submission, like any other request) and
// collects its outcome in the background. Jobs run without the per-request
// timeout: their lifetime is governed by their own context.
func (s *Service) enqueueJob(h *jobHandle) error {
	pj := &job{ctx: h.ctx, kind: "job", enqueued: time.Now(), run: func(*scratch) (any, error) {
		return nil, s.runJob(h)
	}, done: make(chan outcome, 1)}

	if err := s.admit(pj); err != nil {
		return err
	}
	go func() {
		out := <-pj.done
		switch {
		case out.err == nil:
			h.setState(JobDone, nil)
		case errors.Is(out.err, context.Canceled):
			h.setState(JobCanceled, nil)
		default:
			h.setState(JobFailed, out.err)
		}
		h.cancel() // release the context's resources in every path
	}()
	return nil
}

// runJob executes the sweep on a pool worker, fanning points over the
// job's intra-run workers and spooling each result as it completes.
// Isolate: with worker > 1 the points run on the sweep pool's goroutines,
// outside runSafely's recover, where an unrecovered panic would kill the
// whole process instead of failing the job. A panicking point or a failed
// spool append fails the job; cancellation ends it with the context's
// error.
func (s *Service) runJob(h *jobHandle) error {
	h.setState(JobRunning, nil)
	o := scenario.SweepOptions{Workers: h.worker, Memo: s.memoFor(h.e), Isolate: true, Context: h.ctx}
	bufs := make([][]byte, o.Slots(h.set.Len()))
	err := h.e.Sweep(h.set, o, func(slot int, r scenario.PointResult) error {
		return h.record(r, &bufs[slot])
	})
	if s.opts.Cache != nil {
		// Seal the cache segment after each job so sibling workers
		// sharing the directory get truncation-proof entries even if this
		// process dies before a clean shutdown. Best-effort: a seal
		// failure costs durability of the seal, not the job.
		_ = s.opts.Cache.Sync()
	}
	if err != nil {
		return err
	}
	return h.ctx.Err()
}

// JobStatusByID snapshots one job's progress.
func (s *Service) JobStatusByID(id string) (*JobStatus, error) {
	h, err := s.jobs.get(id)
	if err != nil {
		return nil, err
	}
	return h.status(), nil
}

// Jobs lists every registered job's status, id-ordered.
func (s *Service) Jobs() []*JobStatus {
	hs := s.jobs.list()
	out := make([]*JobStatus, len(hs))
	for i, h := range hs {
		out[i] = h.status()
	}
	return out
}

// CancelJob cancels a queued or running job through its context and
// removes it from the registry, returning its final status. Canceling a
// job that already finished just removes it.
func (s *Service) CancelJob(id string) (*JobStatus, error) {
	h, err := s.jobs.get(id)
	if err != nil {
		return nil, err
	}
	h.cancel()
	// The worker (or the queued-job drop path) observes the canceled
	// context and settles the terminal state; don't wait for it here —
	// cancellation must return promptly even mid-sweep.
	s.jobs.remove(id)
	st := h.status()
	if st.State == JobQueued || st.State == JobRunning {
		st.State = JobCanceled
	}
	return st, nil
}

// WaitJob blocks until the job reaches a terminal state (done, failed or
// canceled) or ctx expires, and returns its final status.
func (s *Service) WaitJob(ctx context.Context, id string) (*JobStatus, error) {
	h, err := s.jobs.get(id)
	if err != nil {
		return nil, err
	}
	select {
	case <-h.done:
		return h.status(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// ResultQuery filters a job's streamed results.
type ResultQuery struct {
	// Family keeps only points of cells with this PTG family (random, fft,
	// strassen). Empty keeps all.
	Family string
	// Strategy projects every result down to the single named strategy
	// column (matching the cell's labels). Empty keeps all columns.
	Strategy string
	// From/To keep only points with From ≤ index < To. A zero To means
	// the end of the expansion UNLESS ToSet is true — a client explicitly
	// asking for the empty range [x,x) must get nothing, not everything.
	From, To int
	// ToSet marks To as explicitly provided. The HTTP layer sets it when
	// the `to` parameter is present, so `to=0` and an absent `to` stop
	// conflating. Struct literals that set a positive To without ToSet
	// keep their historical meaning (an explicit bound).
	ToSet bool
}

// plan compiles the query against an expansion, normalizing the
// unset-vs-zero To distinction into the query package's NoLimit sentinel.
func (q ResultQuery) plan(e *scenario.Expansion) (*query.Plan, error) {
	to := q.To
	if to == 0 && !q.ToSet {
		to = query.NoLimit
	}
	return query.Compile(e, query.Query{
		Family:   q.Family,
		Strategy: q.Strategy,
		From:     q.From,
		To:       to,
	})
}

// JobResults streams the job's completed results as JSONL — one
// scenario.PointResult per line, in global point order — applying the
// query's filters. The query compiles to a plan (internal/query) that
// resolves the family/strategy/range predicate to the minimal contiguous
// index ranges, so the walk visits only selected indices instead of every
// point of the expansion. Lines are read back
// from the job's result spool file (nothing is resident server-side);
// records needing no projection are relayed byte-for-byte, and the
// strategy projection re-marshals through the same bit-exact wire
// encoding, so a client can resume aggregation later. It may be called
// while the job is still running: it streams whatever has completed so
// far. Safe for concurrent use.
func (s *Service) JobResults(id string, q ResultQuery, w io.Writer) error {
	h, err := s.jobs.get(id)
	if err != nil {
		return err
	}
	if q.To < 0 {
		// Reject before plan() could read a negative To as "unbounded".
		return s.invalid(fmt.Errorf("service: result range [%d,%d) is invalid", q.From, q.To))
	}
	p, err := q.plan(h.e)
	if err != nil {
		// Every compile failure — unknown family or strategy, inverted or
		// out-of-range bounds (including From ≥ NumPoints) — is a bad
		// request, not an empty 200 stream.
		return s.invalid(err)
	}
	return p.EachRange(func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if !h.set.Contains(i) {
				continue // not part of this job's shard
			}
			line, ok, err := h.readRecord(i)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			if p.ProjectColumn(h.e.CellOf(i)) >= 0 {
				r, err := scenario.ParseJSONL(line)
				if err != nil {
					return err
				}
				// Project validates the record's column count before
				// slicing: a malformed spool record (torn, foreign, or
				// short) surfaces as query.ErrMalformedRecord instead of
				// panicking mid-stream.
				if r, err = p.Project(r); err != nil {
					return err
				}
				if line, err = scenario.AppendJSONL(line[:0], r); err != nil {
					return err
				}
			}
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
		return nil
	})
}

// resolveSpecCaps parses the spec and applies the structural caps (NPTGs,
// strategy count, platform sizes, event budget) the synchronous campaign
// endpoint and the job subsystem share.
func resolveSpecCaps(raw json.RawMessage) (*scenario.Spec, error) {
	spec, err := scenario.ParseSpec(raw)
	if err != nil {
		return nil, err
	}
	for _, n := range spec.NPTGs {
		if n > MaxCampaignNPTGs {
			return nil, fmt.Errorf("service: nptgs value %d above cap %d", n, MaxCampaignNPTGs)
		}
	}
	if len(spec.Strategies) > MaxCampaignStrategies {
		return nil, fmt.Errorf("service: %d strategies, cap is %d", len(spec.Strategies), MaxCampaignStrategies)
	}
	for _, ps := range spec.PlatformSpecs {
		if len(ps.Clusters) > MaxCampaignClusters {
			return nil, fmt.Errorf("service: platform %q has %d clusters, cap is %d",
				ps.Name, len(ps.Clusters), MaxCampaignClusters)
		}
		for _, c := range ps.Clusters {
			if c.Procs > MaxCampaignProcs {
				return nil, fmt.Errorf("service: platform %q cluster %q has %d processors, cap is %d",
					ps.Name, c.Name, c.Procs, MaxCampaignProcs)
			}
		}
	}
	if n := spec.Events.Count(); n > MaxCampaignEvents {
		return nil, fmt.Errorf("service: events block implies up to %d events per point, cap is %d",
			n, MaxCampaignEvents)
	}
	return spec, nil
}
