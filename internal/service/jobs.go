package service

// The asynchronous job subsystem: a campaign sweep too long for one
// synchronous HTTP request is submitted as a *job* — the submission
// validates and expands the spec, enqueues one execution onto the same
// bounded worker pool every other request shares, and returns immediately
// with a job id. The job's progress (completed/total points) is polled,
// its completed per-point results are streamed as JSONL with simple query
// filters while it runs, and a delete cancels it through its context.
// Results are never resident: a job sweeps its points inline on the one
// pool worker it holds and appends each result to its own one-segment
// internal/store in a private temp directory, which keeps one bit per
// point plus the segment's run index. Job size is therefore bounded by
// the admission caps and disk, not server memory. A campaign that should
// use more cores is split into more shard jobs (ptgbench -coordinate
// -fleet-shards).

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
	"ptgsched/internal/store"
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

// MaxJobs bounds the job registry: terminal jobs are evicted oldest-first
// to admit new ones, but live jobs are never evicted. The job size and
// backlog caps, MaxJobPoints and MaxJobBacklog, sit with the campaign caps
// in campaign.go.
const MaxJobs = 64

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

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed when the job reaches a terminal state

	mu       sync.Mutex // guards state, err, started, finished
	state    string
	err      error
	started  time.Time
	finished time.Time

	completed atomic.Int64

	// st holds the job's results: a one-segment store in the private
	// directory dir. The job's one-slot sweep appends in index order, so
	// the segment's append order is point order.
	st       *store.Store
	dir      string
	released atomic.Bool
}

// release closes the job's store and deletes its directory; the job's
// results are gone. Called when the job leaves the registry (cancel,
// eviction, Close). A point in flight when the job was canceled then
// fails to append, which runJob reports as the cancel.
func (h *jobHandle) release() {
	if h.st == nil || h.released.Swap(true) {
		return
	}
	h.st.Close()
	os.RemoveAll(h.dir)
}

// releasedErr is what a reader of released results gets: an error, not a
// skip — a client must never receive a silently truncated stream that
// looks complete.
func (h *jobHandle) releasedErr() error {
	return fmt.Errorf("%w: %q (results released mid-stream)", ErrJobNotFound, h.id)
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
// job (and its results) if the registry is full; a registry full of live
// jobs, or one whose live jobs already hold MaxJobBacklog points, refuses.
func (reg *jobRegistry) add(h *jobHandle) (string, error) {
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
	if live+h.set.Len() > MaxJobBacklog {
		return "", fmt.Errorf("%w: %d points already queued or running, backlog cap is %d",
			ErrTooManyJobs, live, MaxJobBacklog)
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

// remove deletes a handle from the registry and releases its results.
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

// resolve validates a job request against the structural caps and
// MaxJobPoints.
func (r JobRequest) resolve() (*scenario.Expansion, scenario.IndexSet, error) {
	return resolveSweep("job", r.Spec, r.Shard, MaxJobPoints)
}

// SubmitJob validates, expands and enqueues an asynchronous campaign job
// onto the service's bounded worker pool and returns its initial status
// immediately — the job id is the handle for polling (JobStatusByID),
// result streaming (JobResults) and cancellation (CancelJob). A full queue
// or a registry full of live jobs refuses the submission. Safe for
// concurrent use.
func (s *Service) SubmitJob(req JobRequest) (*JobStatus, error) {
	e, set, err := req.resolve()
	if err != nil {
		return nil, s.invalid(err)
	}
	dir, err := os.MkdirTemp("", "ptgsched-job-*")
	if err != nil {
		return nil, fmt.Errorf("service: creating job result store: %w", err)
	}
	st, err := store.Create(dir, e, 1)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("service: creating job result store: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &jobHandle{
		name:     e.Spec.Name,
		digest:   e.Digest(),
		e:        e,
		set:      set,
		shardSel: req.Shard,
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		state:    JobQueued,
		st:       st,
		dir:      dir,
	}
	if _, err := s.jobs.add(h); err != nil {
		cancel()
		h.release()
		// A full registry or backlog is a rejection like a full queue:
		// count it so throttled submissions show up in /v1/stats.
		s.stats.rejected.Add(1)
		return nil, err
	}
	if err := s.enqueueJob(h); err != nil {
		s.jobs.remove(h.id) // remove releases the results
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
	pj := &job{ctx: h.ctx, kind: "job", enqueued: time.Now(), run: func(context.Context, *scenario.Scratch) (any, error) {
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

// runJob sweeps the job's points inline on the pool worker it holds, as
// a synchronous campaign does, appending each result to the job's store.
// A panicking point (which the sweep converts into an error) or a failed
// append fails the job; cancellation ends it with the context's error,
// even when the cancel's release made the in-flight point's append fail.
func (s *Service) runJob(h *jobHandle) error {
	h.setState(JobRunning, nil)
	o := scenario.SweepOptions{Workers: 1, Memo: s.memoFor(h.e), Context: h.ctx}
	err := h.e.Sweep(h.set, o, func(_ int, r scenario.PointResult) error {
		if err := h.st.Append(r); err != nil {
			return err
		}
		h.completed.Add(1)
		return nil
	})
	if s.opts.Cache != nil {
		// Seal the cache segment after each job so sibling workers
		// sharing the directory get truncation-proof entries even if this
		// process dies before a clean shutdown. Best-effort: a seal
		// failure costs durability of the seal, not the job.
		_ = s.opts.Cache.Sync()
	}
	if ctxErr := h.ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return err
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

// JobResults streams the job's completed results as JSONL — one
// scenario.PointResult per line, in global point order — applying the
// query's filters (query.Query{To: query.NoLimit} selects them all). The
// query compiles to a plan (internal/query) that the job's store answers
// by reading only the byte runs whose points can match, in append order,
// which is point order because the job is one inline sweep. Each record
// is re-encoded through the same bit-exact wire encoding it was appended
// with, so unprojected lines are byte-identical to the appended ones and
// a client can resume aggregation later; a malformed record under a
// strategy projection surfaces as query.ErrMalformedRecord. It may be
// called while the job is still running: it streams whatever has
// completed so far. Results released mid-stream (the job was canceled,
// evicted or the service closed) are an ErrJobNotFound error. Safe for
// concurrent use.
func (s *Service) JobResults(id string, q query.Query, w io.Writer) error {
	h, err := s.jobs.get(id)
	if err != nil {
		return err
	}
	p, err := query.Compile(h.e, q)
	if err != nil {
		// Every compile failure — unknown family or strategy, inverted,
		// negative or out-of-range bounds (including From ≥ NumPoints
		// and a To below NoLimit) — is a bad request, not an empty 200
		// stream.
		return s.invalid(err)
	}
	var line []byte
	_, err = h.st.Query(p, func(r scenario.PointResult) error {
		if h.released.Load() {
			return h.releasedErr()
		}
		var err error
		if line, err = scenario.AppendJSONL(line[:0], r); err != nil {
			return err
		}
		_, err = w.Write(line)
		return err
	})
	if h.released.Load() {
		// Also the error of a store whose segment was removed before the
		// query opened it.
		return h.releasedErr()
	}
	return err
}

// resolveSpecCaps parses the spec and applies the structural caps (NPTGs,
// random-family tasks, strategy count, platform sizes, event budget) that
// the synchronous campaign endpoint and the job subsystem share.
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
	for _, f := range spec.Families {
		for _, n := range f.Tasks {
			if n > MaxCampaignTasks {
				return nil, fmt.Errorf("service: tasks value %d above cap %d", n, MaxCampaignTasks)
			}
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
