// Package online implements the paper's future-work direction (§8):
// concurrent PTGs with *different submission times*. On every application
// arrival — and, optionally, on every application completion — the resource
// constraints β of the active applications are recomputed with the chosen
// strategy, the allocations of their not-yet-started tasks are rebuilt
// under the new constraints, and committed-but-not-started placements are
// revoked and remapped ("the schedules of the already running applications
// may have to be reconsidered"). Every rebalance allocates through the
// run's store of allocation traces (alloc.Traces, in the Scratch): an
// arrival or a completion only rescales β, so an application's growth steps
// under its previous shares are replayed as far as the new share decides
// them alike — all the way when β is where it was — and a platform event
// that returns to an earlier reference cluster finds that reference's traces
// again. Allocations use the procedure in Options, whose zero value is SCRAP
// — see Options.
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
	"container/heap"
	"fmt"
	"math"
	"slices"

	"ptgsched/internal/alloc"
	"ptgsched/internal/cost"
	"ptgsched/internal/dag"
	"ptgsched/internal/events"
	"ptgsched/internal/mapping"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
)

// Arrival is one application submission.
type Arrival struct {
	Graph *dag.Graph
	// At is the submission time in seconds; arrivals need not be sorted.
	At float64
}

// Options tunes the online scheduler. The zero value selects the selfish
// strategy, SCRAP allocation, packing on, and rebalancing on both arrivals
// and completions. That is not the offline configuration: core.New
// allocates with SCRAP-MAX, the only procedure the paper evaluates, while
// the zero Procedure here is alloc.SCRAP and no caller in this module
// (scenario sweeps, the service's /v1/online, ptgsim) sets it — every
// online and dynamic result is a SCRAP result. Switching the default moves
// every online golden and is tracked in ROADMAP item 2; allocation traces
// are kept per procedure and replay either, so the switch keeps the replay.
type Options struct {
	// Strategy determines β over the set of *active* applications at each
	// rebalance point. The zero value is the selfish strategy.
	Strategy strategy.Strategy
	// Procedure is the allocation procedure. The zero value is alloc.SCRAP
	// (the global area test), not the SCRAP-MAX of the offline scheduler.
	Procedure alloc.Procedure
	// NoPacking disables allocation packing during mapping.
	NoPacking bool
	// NoRebalanceOnCompletion keeps the constraints computed at the last
	// arrival until the next arrival, instead of redistributing a finished
	// application's share immediately (§8 mentions both directions).
	NoRebalanceOnCompletion bool
	// Timeline injects dynamic-scenario events (cluster failures,
	// recoveries, speed changes, cancellations, resubmissions) into the
	// run; see dynamic.go for the semantics. An empty timeline reproduces
	// the static run bit for bit.
	Timeline events.Timeline
	// Policy decides how much of an application an invalidating event
	// discards; nil defaults to RestartPolicy. Ignored without a Timeline.
	Policy ReschedulePolicy
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

// scheduler is the online driver's mutable state.
type scheduler struct {
	pf   *platform.Platform
	opts Options
	ref  platform.Reference

	arrivals []Arrival
	tasks    [][]*onlineTask // [app][taskID]
	allocs   []*alloc.Allocation
	bl       [][]float64
	arrived  []bool
	done     []int // finished task count per app
	result   *Result

	// avail[k][i]: when processor i of cluster k frees up, considering
	// running and committed placements.
	avail [][]float64

	// Dynamic-scenario state (see dynamic.go). dyn is set when a timeline
	// is present; the static path never consults downC/cancelled and keeps
	// speed equal to the configured cluster speeds.
	dyn       bool
	policy    ReschedulePolicy
	speed     []float64 // effective per-cluster speed
	downC     []bool    // cluster currently failed
	cancelled []bool    // application currently withdrawn

	events eventHeap
	now    float64

	sc *Scratch

	// recompute makes every rebalance allocate with plain alloc.Compute
	// instead of through the scratch's traces. Tests set it to check that
	// replaying changes nothing.
	recompute bool
}

// Scratch carries what one worker's online runs share: the allocation
// traces of the arrival graphs, which outlive a run so that a campaign
// point's strategies — the same arrivals under the same platform events —
// replay each other's growth steps, and the driver's working buffers. A
// Scratch must be confined to one goroutine. The arrival graphs' task costs
// must not be edited between runs that share traces (appended tasks or
// edges are detected); Release before moving on to other graphs.
type Scratch struct {
	traces alloc.Traces

	active []int
	graphs []*dag.Graph
	ready  []*onlineTask
	free   []float64 // one cluster's availability, sorted
	order  []int     // one cluster's processors, earliest free first
}

// NewScratch returns an empty scratch ready for ScheduleWith.
func NewScratch() *Scratch { return new(Scratch) }

// Release drops the traces and every graph and task the scratch still
// references, keeping only buffers.
func (sc *Scratch) Release() {
	sc.traces.Forget()
	clear(sc.graphs[:cap(sc.graphs)])
	clear(sc.ready[:cap(sc.ready)])
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
	s := &scheduler{pf: pf, opts: opts, ref: pf.ReferenceCluster(), sc: sc}
	s.arrivals = append([]Arrival(nil), arrivals...)
	s.result = &Result{Apps: make([]AppResult, len(arrivals))}

	s.tasks = make([][]*onlineTask, len(arrivals))
	s.allocs = make([]*alloc.Allocation, len(arrivals))
	s.bl = make([][]float64, len(arrivals))
	s.arrived = make([]bool, len(arrivals))
	s.done = make([]int, len(arrivals))
	for i, a := range s.arrivals {
		if a.At < 0 {
			panic(fmt.Sprintf("online: negative arrival time %g", a.At))
		}
		if err := a.Graph.Validate(false); err != nil {
			panic(fmt.Sprintf("online: app %d: %v", i, err))
		}
		s.tasks[i] = make([]*onlineTask, len(a.Graph.Tasks))
		for _, t := range a.Graph.Tasks {
			s.tasks[i][t.ID] = &onlineTask{app: i, task: t, remainingPreds: len(t.In())}
		}
		s.result.Apps[i] = AppResult{SubmittedAt: a.At, StartedAt: math.Inf(1)}
		heap.Push(&s.events, event{at: a.At, kind: evArrival, app: i})
	}

	s.avail = make([][]float64, len(pf.Clusters))
	s.speed = make([]float64, len(pf.Clusters))
	s.downC = make([]bool, len(pf.Clusters))
	for k, c := range pf.Clusters {
		s.avail[k] = make([]float64, c.Procs)
		s.speed[k] = c.Speed
	}
	s.cancelled = make([]bool, len(arrivals))

	if len(opts.Timeline) > 0 {
		s.dyn = true
		s.policy = opts.Policy
		if s.policy == nil {
			s.policy = RestartPolicy()
		}
		s.result.Cancelled = make([]bool, len(arrivals))
		s.pushTimeline(opts.Timeline)
	}
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
	for s.events.Len() > 0 {
		ev := heap.Pop(&s.events).(event)
		if stale(ev) {
			continue
		}
		s.now = ev.at
		s.handle(ev)
		// Drain all events at the same instant before making decisions.
		for s.events.Len() > 0 && s.events[0].at == s.now {
			nxt := heap.Pop(&s.events).(event)
			if stale(nxt) {
				continue
			}
			s.handle(nxt)
		}
		s.dispatch()
	}
}

func (s *scheduler) handle(ev event) {
	switch ev.kind {
	case evArrival:
		s.onArrival(ev.app)
	case evCompletion:
		s.onCompletion(ev.ot)
	case evClusterDown:
		s.result.EventsApplied++
		s.onClusterDown(ev.cluster)
	case evClusterUp:
		s.result.EventsApplied++
		s.onClusterUp(ev.cluster)
	case evSpeedChange:
		s.result.EventsApplied++
		s.onSpeedChange(ev.cluster, ev.factor)
	case evCancel:
		s.result.EventsApplied++
		s.onCancel(ev.app)
	case evResubmit:
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

// rebalance recomputes β over the active set, reallocates every active
// application's unfinished-and-not-running tasks, and revokes committed
// placements so dispatch can remap them under the new allocations.
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
	betas := s.opts.Strategy.Betas(graphs, s.ref)

	for i, app := range active {
		if s.recompute {
			s.allocs[app] = alloc.Compute(graphs[i], s.ref, betas[i], s.opts.Procedure)
		} else {
			s.allocs[app] = s.sc.traces.Compute(graphs[i], s.ref, betas[i], s.opts.Procedure)
		}
		s.bl[app] = graphs[i].BottomLevels(s.allocs[app].TimeOf, dag.ZeroComm)
		for _, ot := range s.tasks[app] {
			if ot.state == taskCommitted && ot.placement.Start > s.now {
				ot.state = taskReady
				ot.placement = nil
			}
		}
	}
	s.rebuildAvail()
}

// rebuildAvail recomputes processor availability from running and still-
// committed placements.
func (s *scheduler) rebuildAvail() {
	for k := range s.avail {
		for i := range s.avail[k] {
			s.avail[k][i] = s.now
		}
	}
	for _, appTasks := range s.tasks {
		for _, ot := range appTasks {
			if ot.state != taskRunning && ot.state != taskCommitted {
				continue
			}
			p := ot.placement
			for _, i := range p.Procs {
				if p.End > s.avail[p.Cluster.Index][i] {
					s.avail[p.Cluster.Index][i] = p.End
				}
			}
		}
	}
}

// dispatch maps every ready task of every active application at the current
// instant, in decreasing bottom-level order, exactly like the offline
// ready-task mapper.
func (s *scheduler) dispatch() {
	ready := s.sc.ready[:0]
	for _, app := range s.activeApps() {
		for _, ot := range s.tasks[app] {
			if ot.state == taskReady {
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
		s.commit(ot)
	}
}

// commit chooses the earliest-finish (cluster, width) for ot, honouring
// allocation packing, reserves the processors and schedules its completion.
func (s *scheduler) commit(ot *onlineTask) {
	a := s.allocs[ot.app]
	dataReady := func(c *platform.Cluster) float64 {
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
		free := append(s.sc.free[:0], s.avail[c.Index]...)
		s.sc.free = free
		slices.Sort(free)
		ready := dataReady(c)
		eval := func(q int) (float64, float64) {
			start := math.Max(ready, free[q-1])
			return start, start + cost.TaskTime(ot.task, speed, q)
		}
		start, end := eval(want)
		cc := cand{cluster: c, procs: want, start: start, end: end}
		if !s.opts.NoPacking {
			for q := want - 1; q >= 1; q-- {
				st, en := eval(q)
				if st >= cc.start {
					break
				}
				if en <= cc.end {
					cc = cand{cluster: c, procs: q, start: st, end: en}
				}
			}
		}
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
	avail := s.avail[best.cluster.Index]
	order := s.sc.order[:0]
	for i := range avail {
		order = append(order, i)
	}
	s.sc.order = order
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(avail[i], avail[j]) })
	procs := slices.Clone(order[:best.procs])
	slices.Sort(procs)
	for _, i := range procs {
		avail[i] = best.end
	}

	ot.placement = &mapping.Placement{
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
	heap.Push(&s.events, event{at: best.end, kind: evCompletion, ot: ot, placement: ot.placement})
}

// Event plumbing.

type eventKind int

const (
	evArrival eventKind = iota
	evCompletion
	evClusterDown
	evClusterUp
	evSpeedChange
	evCancel
	evResubmit
)

// rank orders same-instant events: completions first (a task finishing
// exactly when its cluster fails survives, and a finishing application
// releases its share before anyone decides), then recoveries, speed
// changes, failures, cancellations, resubmissions, and arrivals last (a
// newcomer sees the platform state of its instant). Same-kind pairs
// compare equal, preserving the static path's heap order exactly.
func (k eventKind) rank() int {
	switch k {
	case evCompletion:
		return 0
	case evClusterUp:
		return 1
	case evSpeedChange:
		return 2
	case evClusterDown:
		return 3
	case evCancel:
		return 4
	case evResubmit:
		return 5
	default: // evArrival
		return 6
	}
}

type event struct {
	at   float64
	kind eventKind
	app  int
	ot   *onlineTask
	// placement identifies which commitment a completion event belongs
	// to; a mismatch with the task's current placement marks it stale.
	placement *mapping.Placement
	// cluster and factor parameterize platform events.
	cluster int
	factor  float64
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].kind.rank() < h[j].kind.rank()
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }

// pushEvent enqueues one event (the dynamic machinery's entry point).
func (s *scheduler) pushEvent(ev event) { heap.Push(&s.events, ev) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
