// Package online implements the paper's future-work direction (§8):
// concurrent PTGs with *different submission times*. On every application
// arrival — and, optionally, on every application completion — the resource
// constraints β of the active applications are recomputed with the chosen
// strategy, the allocations of their not-yet-started tasks are rebuilt
// under the new constraints, and committed-but-not-started placements are
// revoked and remapped ("the schedules of the already running applications
// may have to be reconsidered"). A rebalance records each active
// application's β and the reference cluster in force and drops its
// allocation; the allocation is computed when a decision first reads it —
// at the first dispatch that finds a ready task of the application — so an
// application whose unfinished tasks are all running or waiting on
// predecessors when the next rebalance comes is not allocated at all. It
// allocates through the run's store of allocation traces (alloc.Traces, in
// the Scratch): an arrival or a completion only rescales β, so an
// application's growth steps under its previous shares are replayed as far
// as the new share decides them alike (a share it already had returns the
// allocation computed then), and a platform event that returns to an
// earlier reference cluster finds that reference's traces again.
// Allocations use the procedure in Options, whose zero value is SCRAP — see
// Options.
//
// The driver is an event-driven scheduler over the mapper's cost model:
// decision instants are application arrivals and task completions; at each
// instant, the ready tasks of all active applications are mapped in
// decreasing bottom-level order exactly as the offline mapper does.
// Completion times follow the mapping cost model (computation via Amdahl's
// law, contention-free redistribution estimates); network contention
// replay, as simexec does offline, is orthogonal to the policy decisions
// studied here.
//
// Concurrency: Schedule keeps the whole driver state in per-call values
// and a Scratch, and mutates the arrival graphs' analysis caches;
// concurrent calls are safe on disjoint arrival sets and distinct scratches
// (the service layer generates a private workload per request and runs it on
// the worker's scratch).
package online

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"ptgsched/internal/alloc"
	"ptgsched/internal/dag"
	"ptgsched/internal/events"
	"ptgsched/internal/mapping"
	"ptgsched/internal/platform"
	"ptgsched/internal/pq"
	"ptgsched/internal/strategy"
)

// Arrival is one application submission.
type Arrival struct {
	Graph *dag.Graph
	// At is the submission time in seconds; arrivals need not be sorted.
	At float64
}

// Options tunes the online scheduler. The zero value selects the selfish
// strategy, SCRAP allocation and rebalancing on both arrivals and
// completions; the mapping always packs allocations (§5). That is not the
// offline configuration: core.New allocates with SCRAP-MAX, the only
// procedure the paper evaluates, while the zero Procedure here is
// alloc.SCRAP and no caller in this module (scenario sweeps, the service's
// /v1/online, ptgsim) sets it — every online and dynamic result is a SCRAP
// result. Switching the default moves every online golden and is tracked
// in ROADMAP item 1; allocation traces are kept per procedure and replay
// either, so the switch keeps the replay.
type Options struct {
	// Strategy determines β over the set of *active* applications at each
	// rebalance point. The zero value is the selfish strategy.
	Strategy strategy.Strategy
	// Procedure is the allocation procedure. The zero value is alloc.SCRAP
	// (the global area test), not the SCRAP-MAX of the offline scheduler.
	Procedure alloc.Procedure
	// NoRebalanceOnCompletion keeps the constraints computed at the last
	// arrival until the next arrival, instead of redistributing a finished
	// application's share immediately (§8 mentions both directions).
	NoRebalanceOnCompletion bool
	// Timeline injects dynamic-scenario events (cluster failures,
	// recoveries, speed changes, cancellations, resubmissions) into the
	// run; see dynamic.go for the semantics. An empty timeline reproduces
	// the static run bit for bit.
	Timeline events.Timeline
	// Policy decides how much of an application a cluster failure
	// discards; the zero value is Restart. Ignored without a Timeline.
	Policy Policy
}

// AppResult reports one application's outcome.
type AppResult struct {
	// SubmittedAt echoes the arrival time.
	SubmittedAt float64
	// StartedAt is when the application's first task began executing.
	StartedAt float64
	// CompletedAt is when its last task finished.
	CompletedAt float64
}

// FlowTime is the application's sojourn time: completion minus submission.
func (a AppResult) FlowTime() float64 { return a.CompletedAt - a.SubmittedAt }

// Result is the outcome of an online scheduling run.
type Result struct {
	Apps []AppResult
	// Makespan is the completion time of the last application.
	Makespan float64
	// Placements lists every task placement in commit order (App indexes
	// the arrival order).
	Placements []*mapping.Placement
	// Rebalances counts how many times the constraints were recomputed.
	Rebalances int
	// Cancelled marks applications withdrawn by a Cancel event and never
	// resubmitted; nil for static runs. A cancelled application has no
	// surviving placements and its CompletedAt is the withdrawal time.
	Cancelled []bool
	// Restarts records every from-scratch restart (a rescheduling that
	// discarded completed work, or a resubmission): each application's
	// surviving placements all start at or after its latest restart.
	Restarts []events.Restart
	// Reschedules counts rescheduling-policy invocations (one per
	// application per invalidating event).
	Reschedules int
	// EventsApplied counts the timeline events processed.
	EventsApplied int
}

// taskState tracks one task through the online run.
type taskState int

const (
	taskPending   taskState = iota // not all predecessors finished
	taskReady                      // ready, not yet committed to processors
	taskCommitted                  // placed, start time in the future
	taskRunning                    // placed, executing
	taskDone
)

type onlineTask struct {
	app   int
	task  *dag.Task
	state taskState
	// remainingPreds counts unfinished predecessors.
	remainingPreds int
	placement      *mapping.Placement
}

// scheduler is the online driver's mutable state. It lives on the Scratch,
// and a run keeps the storage of the run before it: newScheduler overwrites
// every field, and only what a Result holds is allocated per run.
type scheduler struct {
	pf   *platform.Platform
	opts Options
	ref  platform.Reference

	arrivals []Arrival
	tasks    [][]*onlineTask // [app][taskID]
	// The arrays tasks and bl are cut from, one element per task of every
	// application: the tasks, the tasks' pointers and their bottom levels.
	taskSlab []onlineTask
	ptrSlab  []*onlineTask
	blSlab   []float64
	// shares[app] is the β and the reference cluster the last rebalance set
	// for the application; allocs[app] is its allocation under them, nil
	// until allocate computes it, and bl[app] its bottom levels.
	shares  []share
	allocs  []*alloc.Allocation
	bl      [][]float64
	betas   []float64 // the last rebalance's, one per active application
	arrived []bool
	done    []int // finished task count per app
	result  *Result

	// The run's placements and their processor lists are cut from blocks the
	// run allocates: they end up in the Result, which the caller owns, so
	// they are not the scratch's.
	placements block[mapping.Placement]
	procs      block[int]

	// Dynamic-scenario state (see dynamic.go). dyn is set when a timeline
	// is present; the static path never consults downC/cancelled and keeps
	// speed equal to the configured cluster speeds.
	dyn       bool
	speed     []float64 // effective per-cluster speed
	downC     []bool    // cluster currently failed
	cancelled []bool    // application currently withdrawn

	events pq.Heap[event] // ordered by eventBefore
	now    float64

	sc *Scratch

	// recompute makes every allocation use plain alloc.Compute instead of
	// the scratch's traces. Tests set it to check that replaying changes
	// nothing.
	recompute bool
	// sortMapper, when set, stands in for rebuildAvail and commit. Tests set
	// it to the seed's mapper, which copies and sorts every cluster's
	// availability per task, to check that the sorted structure changes no
	// placement.
	sortMapper interface {
		rebuildAvail()
		commit(ot *onlineTask)
	}
}

// Scratch carries what one worker's online runs share: the allocation
// traces of the arrival graphs, which outlive a run so that a campaign
// point's strategies — the same arrivals under the same platform events —
// replay each other's growth steps, the driver's run state (its per-task
// and per-application vectors and its event queue), and its working
// buffers: the active set and its graphs, the ready list, every cluster's
// processor availability (the sorted structure the offline mapper runs on
// too) with the times vectors rebuildAvail reloads it from, and the tasks a
// cluster failure kills in one application. Only the traces carry anything
// from one run to the next; a run overwrites the rest before it reads it.
// A Scratch must be confined to one goroutine. The arrival graphs' task
// costs must not be edited between runs that share traces (appended tasks
// or edges are detected); Release before moving on to other graphs.
type Scratch struct {
	traces alloc.Traces
	run    scheduler

	active []int
	graphs []*dag.Graph
	ready  []*onlineTask
	// avail[k]: when the processors of cluster k free up, considering
	// running and committed placements, earliest first. rebuildAvail loads
	// it from times[k][processor].
	avail []mapping.Availability
	times [][]float64

	// onClusterDown's per-application killed tasks.
	killed []*onlineTask
}

// NewScratch returns an empty scratch ready for ScheduleWith.
func NewScratch() *Scratch { return new(Scratch) }

// Release drops the traces and every graph, task, allocation and result the
// scratch still references, keeping only buffers.
func (sc *Scratch) Release() {
	sc.traces.Forget()
	clear(sc.graphs[:cap(sc.graphs)])
	clear(sc.ready[:cap(sc.ready)])
	clear(sc.killed[:cap(sc.killed)])
	s := &sc.run
	clear(s.arrivals[:cap(s.arrivals)])
	clear(s.allocs[:cap(s.allocs)])
	clear(s.taskSlab[:cap(s.taskSlab)])
	clear(s.events.Items[:cap(s.events.Items)])
	s.pf, s.opts, s.result = nil, Options{}, nil
	s.placements, s.procs = block[mapping.Placement]{}, block[int]{}
}

// Schedule runs the online scheduler over the given arrivals.
func Schedule(pf *platform.Platform, arrivals []Arrival, opts Options) *Result {
	return ScheduleWith(NewScratch(), pf, arrivals, opts)
}

// ScheduleWith is Schedule on a reusable worker-owned scratch; the result
// is bit-identical and owned by the caller.
func ScheduleWith(sc *Scratch, pf *platform.Platform, arrivals []Arrival, opts Options) *Result {
	s := newScheduler(sc, pf, arrivals, opts)
	s.run()
	s.finish()
	return s.result
}

// newScheduler validates the arrivals and builds the driver's initial
// state: every arrival (and timeline event) queued, nothing handled yet.
func newScheduler(sc *Scratch, pf *platform.Platform, arrivals []Arrival, opts Options) *scheduler {
	if len(arrivals) == 0 {
		panic("online: no arrivals")
	}
	total := 0
	for i, a := range arrivals {
		if a.At < 0 {
			panic(fmt.Sprintf("online: negative arrival time %g", a.At))
		}
		if err := a.Graph.Validate(false); err != nil {
			panic(fmt.Sprintf("online: app %d: %v", i, err))
		}
		total += len(a.Graph.Tasks)
	}
	s, n := &sc.run, len(arrivals)
	*s = scheduler{
		pf: pf, opts: opts, ref: pf.ReferenceCluster(), sc: sc,
		arrivals: append(s.arrivals[:0], arrivals...),
		tasks:    resized(s.tasks, n),
		// One slab holds every application's tasks, one their task
		// pointers and one their bottom levels.
		taskSlab:  resized(s.taskSlab, total),
		ptrSlab:   resized(s.ptrSlab, total),
		blSlab:    resized(s.blSlab, total),
		shares:    resized(s.shares, n),
		allocs:    zeroed(s.allocs, n),
		bl:        resized(s.bl, n),
		betas:     s.betas,
		arrived:   zeroed(s.arrived, n),
		done:      zeroed(s.done, n),
		speed:     resized(s.speed, len(pf.Clusters)),
		downC:     zeroed(s.downC, len(pf.Clusters)),
		cancelled: zeroed(s.cancelled, n),
		events:    pq.Heap[event]{Items: s.events.Items[:0], Less: eventBefore},
		result:    &Result{Apps: make([]AppResult, n)},
	}
	slab, ptrs, bl := s.taskSlab, s.ptrSlab, s.blSlab
	for i, a := range s.arrivals {
		n := len(a.Graph.Tasks)
		s.tasks[i] = ptrs[:n:n]
		s.bl[i] = bl[:n:n]
		for _, t := range a.Graph.Tasks {
			slab[t.ID] = onlineTask{app: i, task: t, remainingPreds: len(t.In())}
			s.tasks[i][t.ID] = &slab[t.ID]
		}
		slab, ptrs, bl = slab[n:], ptrs[n:], bl[n:]
		s.result.Apps[i] = AppResult{SubmittedAt: a.At, StartedAt: math.Inf(1)}
		s.events.Push(event{at: a.At, kind: evArrival, app: i})
	}
	s.placements.next, s.procs.next = total, total
	s.result.Placements = make([]*mapping.Placement, 0, total)

	sc.avail = resized(sc.avail, len(pf.Clusters))
	sc.times = resized(sc.times, len(pf.Clusters))
	for k, c := range pf.Clusters {
		sc.times[k] = resized(sc.times[k], c.Procs)
		s.speed[k] = c.Speed
	}
	s.rebuildAvail() // every processor free at 0

	if len(opts.Timeline) > 0 {
		if opts.Policy != Restart && opts.Policy != Checkpoint {
			panic(fmt.Sprintf("online: unknown rescheduling policy %v", opts.Policy))
		}
		s.dyn = true
		s.result.Cancelled = make([]bool, len(arrivals))
		s.pushTimeline(opts.Timeline)
	}
	return s
}

// resized returns s with length n, reusing its array when that is large
// enough; the elements keep whatever an earlier use left in them.
func resized[S ~[]E, E any](s S, n int) S {
	return slices.Grow(s[:0], n)[:n]
}

// zeroed is resized with every element set to its zero value.
func zeroed[S ~[]E, E any](s S, n int) S {
	s = resized(s, n)
	clear(s)
	return s
}

// finish checks the run drained completely and normalizes the records of
// applications that never executed (withdrawn before starting).
func (s *scheduler) finish() {
	for i := range s.arrivals {
		if s.cancelled[i] {
			continue
		}
		if s.done[i] < len(s.tasks[i]) {
			// Only reachable when every cluster a point has fails forever
			// with work outstanding; the scenario layer rejects such specs.
			panic(fmt.Sprintf("online: application %d incomplete with no events left (all clusters down forever?)", i))
		}
	}
	for i := range s.result.Apps {
		if math.IsInf(s.result.Apps[i].StartedAt, 1) {
			s.result.Apps[i].StartedAt = s.result.Apps[i].SubmittedAt
		}
	}
}

// stale reports whether a completion event refers to a revoked placement
// (the task was re-committed with a different placement, or is no longer
// placed at all).
func stale(ev event) bool {
	return ev.kind == evCompletion && ev.ot.placement != ev.placement
}

func (s *scheduler) run() {
	for s.advance() {
		s.dispatch()
	}
}

// advance moves the clock to the next instant with a live event and handles
// every event of that instant, so that decisions see all of them; it
// reports false once the queue is drained.
func (s *scheduler) advance() bool {
	for s.events.Len() > 0 {
		ev := s.events.Pop()
		if stale(ev) {
			continue
		}
		s.now = ev.at
		s.handle(ev)
		for s.events.Len() > 0 && s.events.Items[0].at == s.now {
			nxt := s.events.Pop()
			if stale(nxt) {
				continue
			}
			s.handle(nxt)
		}
		return true
	}
	return false
}

func (s *scheduler) handle(ev event) {
	switch ev.kind {
	case evArrival:
		s.onArrival(ev.app)
	case evCompletion:
		s.onCompletion(ev.ot)
	case events.ClusterDown:
		s.result.EventsApplied++
		s.onClusterDown(ev.cluster)
	case events.ClusterUp:
		s.result.EventsApplied++
		s.onClusterUp(ev.cluster)
	case events.SpeedChange:
		s.result.EventsApplied++
		s.onSpeedChange(ev.cluster, ev.factor)
	case events.Cancel:
		s.result.EventsApplied++
		s.onCancel(ev.app)
	case events.Resubmit:
		s.result.EventsApplied++
		s.onResubmit(ev.app)
	}
}

func (s *scheduler) onArrival(app int) {
	if s.arrived[app] || s.cancelled[app] {
		// Already re-entered via a Resubmit ahead of this arrival, or
		// withdrawn before arriving.
		return
	}
	s.arrived[app] = true
	for _, ot := range s.tasks[app] {
		if ot.remainingPreds == 0 {
			ot.state = taskReady
		}
	}
	s.rebalance()
}

func (s *scheduler) onCompletion(ot *onlineTask) {
	ot.state = taskDone
	s.done[ot.app]++
	// Only surviving placements enter the results; revoked commitments
	// never ran.
	s.result.Placements = append(s.result.Placements, ot.placement)
	if ot.placement.Start < s.result.Apps[ot.app].StartedAt {
		s.result.Apps[ot.app].StartedAt = ot.placement.Start
	}
	for _, e := range ot.task.Out() {
		succ := s.tasks[ot.app][e.To.ID]
		succ.remainingPreds--
		if succ.remainingPreds == 0 && succ.state == taskPending {
			succ.state = taskReady
		}
	}
	if s.done[ot.app] == len(s.tasks[ot.app]) {
		s.result.Apps[ot.app].CompletedAt = s.now
		if s.now > s.result.Makespan {
			s.result.Makespan = s.now
		}
		if !s.opts.NoRebalanceOnCompletion {
			s.rebalance()
		}
	}
}

// activeApps returns the arrived, unfinished, not-withdrawn applications,
// in a scratch buffer the next call overwrites.
func (s *scheduler) activeApps() []int {
	ids := s.sc.active[:0]
	for i := range s.arrivals {
		if s.arrived[i] && !s.cancelled[i] && s.done[i] < len(s.tasks[i]) {
			ids = append(ids, i)
		}
	}
	s.sc.active = ids
	return ids
}

// share is what an application's allocation is computed from.
type share struct {
	beta float64
	ref  platform.Reference
}

// rebalance recomputes β over the active set, drops every active
// application's allocation so that the next dispatch that reads it
// computes it under the new β, and revokes committed placements so
// dispatch can remap them under the new allocations.
func (s *scheduler) rebalance() {
	active := s.activeApps()
	if len(active) == 0 {
		return
	}
	s.result.Rebalances++

	graphs := s.sc.graphs[:0]
	for _, app := range active {
		graphs = append(graphs, s.arrivals[app].Graph)
	}
	s.sc.graphs = graphs
	s.betas = s.opts.Strategy.BetasInto(s.betas, graphs, s.ref)

	for i, app := range active {
		s.shares[app] = share{beta: s.betas[i], ref: s.ref}
		s.allocs[app] = nil
		for _, ot := range s.tasks[app] {
			if ot.state == taskCommitted && ot.placement.Start > s.now {
				ot.state = taskReady
				ot.placement = nil
			}
		}
	}
	if s.sortMapper != nil {
		s.sortMapper.rebuildAvail()
	} else {
		s.rebuildAvail()
	}
}

// rebuildAvail recomputes processor availability from running and still-
// committed placements: one fill and one sort per cluster.
func (s *scheduler) rebuildAvail() {
	times := s.sc.times
	for _, ts := range times {
		for i := range ts {
			ts[i] = s.now
		}
	}
	for _, appTasks := range s.tasks {
		for _, ot := range appTasks {
			if ot.state != taskRunning && ot.state != taskCommitted {
				continue
			}
			p := ot.placement
			ts := times[p.Cluster.Index]
			for _, i := range p.Procs {
				if p.End > ts[i] {
					ts[i] = p.End
				}
			}
		}
	}
	for k := range times {
		s.sc.avail[k].Load(times[k])
	}
}

// allocate computes app's allocation and bottom levels under the share the
// last rebalance set.
func (s *scheduler) allocate(app int) {
	g, sh := s.arrivals[app].Graph, s.shares[app]
	if s.recompute {
		s.allocs[app] = alloc.Compute(g, sh.ref, sh.beta, s.opts.Procedure)
	} else {
		s.allocs[app] = s.sc.traces.Compute(g, sh.ref, sh.beta, s.opts.Procedure)
	}
	g.BottomLevelsInto(s.bl[app], s.allocs[app].TimeOf)
}

// dispatch maps every ready task of every active application at the current
// instant, in decreasing bottom-level order, exactly like the offline
// ready-task mapper. An application's allocation is computed here, when the
// first of its ready tasks is collected.
func (s *scheduler) dispatch() {
	ready := s.sc.ready[:0]
	for _, app := range s.activeApps() {
		for _, ot := range s.tasks[app] {
			if ot.state == taskReady {
				if s.allocs[app] == nil {
					s.allocate(app)
				}
				ready = append(ready, ot)
			}
		}
	}
	s.sc.ready = ready
	// A total order: no two ready tasks share (application, task).
	slices.SortFunc(ready, func(x, y *onlineTask) int {
		return cmp.Or(
			cmp.Compare(s.bl[y.app][y.task.ID], s.bl[x.app][x.task.ID]),
			cmp.Compare(x.app, y.app),
			cmp.Compare(x.task.ID, y.task.ID))
	})
	for _, ot := range ready {
		if s.sortMapper != nil {
			s.sortMapper.commit(ot)
		} else {
			s.commit(ot)
		}
	}
}

// dataReady returns the earliest time all of ot's predecessor data can be
// at c: now, or the latest predecessor end plus the contention-free
// redistribution estimate.
func (s *scheduler) dataReady(ot *onlineTask, c *platform.Cluster) float64 {
	ready := s.now
	for _, e := range ot.task.In() {
		pred := s.tasks[ot.app][e.From.ID]
		at := pred.placement.End + s.pf.TransferTime(pred.placement.Cluster, c, e.Bytes)
		if at > ready {
			ready = at
		}
	}
	return ready
}

// commit chooses the earliest-finish (cluster, width) for ot, reserves the
// processors and schedules its completion. A cluster is evaluated through
// mapping.Availability.Best, the §5 step the offline mapper shares; this
// driver's own are the inputs — the clock under the data-ready time, down
// clusters skipped, widths translated at the effective speed — and the
// comparison: exact, no tolerance, unlike the offline mapper's better, and
// the first cluster wins a full tie. The two rules agree on every batch of the
// Fig. 3–5 grids (TestOfflineEqualsOnlineAtRelease0) and still stay apart:
// merged, results move wherever two finish times fall within 1e-12.
func (s *scheduler) commit(ot *onlineTask) {
	a := s.allocs[ot.app]

	type cand struct {
		cluster *platform.Cluster
		procs   int
		start   float64
		end     float64
	}
	var best cand
	found := false
	for _, c := range s.pf.Clusters {
		if s.downC[c.Index] {
			continue
		}
		speed := s.speed[c.Index]
		want := alloc.TranslateTo(a.Procs[ot.task.ID], a.Ref, c.Procs, speed)
		cc := cand{cluster: c}
		cc.procs, cc.start, cc.end = s.sc.avail[c.Index].Best(ot.task, speed, want, s.dataReady(ot, c), true)
		if !found || cc.end < best.end ||
			(cc.end == best.end && cc.start < best.start) ||
			(cc.end == best.end && cc.start == best.start && cc.procs < best.procs) {
			best = cc
			found = true
		}
	}
	if !found {
		if s.dyn {
			// Every cluster is down: the task stays ready and is
			// recommitted at the next recovery's dispatch.
			return
		}
		panic("online: no cluster available")
	}

	// The earliest-free processors of the winner, the lowest index first
	// among equally free ones.
	procs := s.procs.take(best.procs)
	s.sc.avail[best.cluster.Index].Reserve(procs, best.end)

	ot.placement = &s.placements.take(1)[0]
	*ot.placement = mapping.Placement{
		App:     ot.app,
		Task:    ot.task,
		Cluster: best.cluster,
		Procs:   procs,
		Start:   best.start,
		End:     best.end,
	}
	if best.start <= s.now {
		ot.state = taskRunning
	} else {
		ot.state = taskCommitted
	}
	s.events.Push(event{at: best.end, kind: evCompletion, ot: ot, placement: ot.placement})
}

// block hands out pieces of arrays it allocates in bulk, each new array
// twice as long as the one before, so a run allocates logarithmically many.
// A piece stays valid for as long as anything references it.
type block[E any] struct {
	free []E
	next int // the length of the next array
}

// take cuts the next n elements off the block, with capacity n so that no
// append through the piece reaches its neighbours.
func (b *block[E]) take(n int) []E {
	if len(b.free) < n {
		b.free = make([]E, max(n, b.next))
		b.next *= 2
	}
	piece := b.free[:n:n]
	b.free = b.free[n:]
	return piece
}

// Event plumbing.

// The driver's own two event kinds, beside the timeline's.
const (
	evCompletion events.Kind = -1 - iota
	evArrival
)

// rank orders same-instant events: completions first (a task finishing
// exactly when its cluster fails survives, and a finishing application
// releases its share before anyone decides), then the timeline's kinds in
// their own order (events.Kind.Rank), and arrivals last (a newcomer sees
// the platform state of its instant). Same-kind pairs compare equal,
// preserving the static path's heap order exactly.
func rank(k events.Kind) int {
	switch k {
	case evCompletion:
		return -1
	case evArrival:
		return math.MaxInt
	default:
		return k.Rank()
	}
}

type event struct {
	at   float64
	kind events.Kind
	app  int
	ot   *onlineTask
	// placement identifies which commitment a completion event belongs
	// to; a mismatch with the task's current placement marks it stale.
	placement *mapping.Placement
	// cluster and factor parameterize platform events.
	cluster int
	factor  float64
}

// eventBefore orders the event queue by (time, rank). pq.Heap sifts exactly
// as container/heap does, so same-(time, rank) events pop in the order they
// always have — two completions at one instant append to Result.Placements
// in pop order.
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return rank(a.kind) < rank(b.kind)
}
