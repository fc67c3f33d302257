package mapping

import (
	"fmt"
	"math"
	"sort"

	"ptgsched/internal/alloc"
	"ptgsched/internal/dag"
	"ptgsched/internal/platform"
	"ptgsched/internal/pq"
)

// Map schedules the tasks of all allocated applications onto pf. All
// applications are submitted at time 0 (the paper's model; different
// submission times are future work in §8).
func Map(pf *platform.Platform, apps []*alloc.Allocation, opts Options) *Schedule {
	m := newMapper(pf, apps, opts)
	switch opts.Ordering {
	case ReadyTasks:
		m.runReady()
	case Global:
		m.runGlobal()
	default:
		panic(fmt.Sprintf("mapping: unknown ordering %d", int(opts.Ordering)))
	}
	return m.sched
}

// taskRef is one task of one application, with the bottom level the ready
// priority orders it by.
type taskRef struct {
	bl   float64
	app  int
	task *dag.Task
}

// before is the ready priority: decreasing bottom level; ties by application
// then task ID for determinism. It is a total order, so any correct heap or
// sort places tasks in the one sequence.
func before(a, b *taskRef) bool {
	if a.bl != b.bl {
		return a.bl > b.bl
	}
	if a.app != b.app {
		return a.app < b.app
	}
	return a.task.ID < b.task.ID
}

// feed is one predecessor's contribution to a task's data-ready time.
type feed struct {
	end   float64
	from  *platform.Cluster
	bytes float64
}

type mapper struct {
	pf    *platform.Platform
	apps  []*alloc.Allocation
	opts  Options
	sched *Schedule

	// avail[k] is the availability view of cluster k.
	avail []Availability
	// want[app][k][taskID] is the translated allocation width of the task
	// on cluster k, precomputed in one batch per application.
	want [][][]int
	// bl[app][taskID] is the task's bottom level under its reference
	// allocation (computation only, per §5).
	bl [][]float64
	// feeds is the per-task data-ready scratch buffer, refilled before the
	// cluster scan of each placement instead of rebuilding a closure.
	feeds []feed
}

func newMapper(pf *platform.Platform, apps []*alloc.Allocation, opts Options) *mapper {
	total := 0
	for _, a := range apps {
		total += len(a.Graph.Tasks)
	}
	m := &mapper{
		pf:   pf,
		apps: apps,
		opts: opts,
		sched: &Schedule{
			Platform:   pf,
			Apps:       apps,
			Placements: make([]*Placement, 0, total),
			byTask:     make(map[*dag.Task]*Placement, total),
		},
	}
	// Every processor is free at 0: one zero vector loads every cluster.
	largest := 0
	for _, c := range pf.Clusters {
		largest = max(largest, c.Procs)
	}
	free := make([]float64, largest)
	m.avail = make([]Availability, len(pf.Clusters))
	for k, c := range pf.Clusters {
		m.avail[k].Load(free[:c.Procs])
	}
	m.want = make([][][]int, len(apps))
	m.bl = make([][]float64, len(apps))
	for i, a := range apps {
		m.want[i] = alloc.TranslateBatch(a.Procs, a.Ref, pf.Clusters)
		m.bl[i] = a.Graph.BottomLevels(a.TimeOf, dag.ZeroComm)
	}
	return m
}

// ref returns task t of application app under its ready priority.
func (m *mapper) ref(app int, t *dag.Task) taskRef {
	return taskRef{bl: m.bl[app][t.ID], app: app, task: t}
}

// candidate is one (cluster, width) option for a task.
type candidate struct {
	cluster *platform.Cluster
	procs   int
	start   float64
	end     float64
}

// place maps task t of application app, choosing the earliest-finish
// candidate across clusters (ties: earlier start, then fewer processors,
// then cluster index). It reserves the processors and records the
// placement. m.feeds must already hold the task's predecessor feeds.
func (m *mapper) place(app int, t *dag.Task) *Placement {
	var best candidate
	found := false
	for _, c := range m.pf.Clusters {
		cand := candidate{cluster: c}
		cand.procs, cand.start, cand.end = m.avail[c.Index].Best(
			t, c.Speed, m.want[app][c.Index][t.ID], m.dataReady(c), !m.opts.NoPacking)
		if !found || better(cand, best) {
			best = cand
			found = true
		}
	}
	if !found {
		panic("mapping: no cluster available")
	}

	procs := m.avail[best.cluster.Index].Reserve(best.procs, best.end)

	p := &Placement{
		App:     app,
		Index:   len(m.sched.Placements),
		Task:    t,
		Cluster: best.cluster,
		Procs:   procs,
		Start:   best.start,
		End:     best.end,
	}
	m.sched.Placements = append(m.sched.Placements, p)
	m.sched.byTask[t] = p
	return p
}

func better(a, b candidate) bool {
	const tol = 1e-12
	if math.Abs(a.end-b.end) > tol {
		return a.end < b.end
	}
	if math.Abs(a.start-b.start) > tol {
		return a.start < b.start
	}
	if a.procs != b.procs {
		return a.procs < b.procs
	}
	return a.cluster.Index < b.cluster.Index
}

// loadFeeds fills m.feeds with the placements of t's predecessors: for each
// candidate cluster, dataReady then yields the latest predecessor end plus
// the (contention-free) redistribution estimate.
func (m *mapper) loadFeeds(t *dag.Task) {
	m.feeds = m.feeds[:0]
	for _, e := range t.In() {
		p := m.sched.byTask[e.From]
		if p == nil {
			panic(fmt.Sprintf("mapping: predecessor %q not yet placed", e.From.Name))
		}
		m.feeds = append(m.feeds, feed{end: p.End, from: p.Cluster, bytes: e.Bytes})
	}
}

// dataReady returns the earliest time all predecessor data can be at c,
// given the feeds loaded by loadFeeds.
func (m *mapper) dataReady(c *platform.Cluster) float64 {
	ready := 0.0
	for _, f := range m.feeds {
		at := f.end + m.pf.TransferTime(f.from, c, f.bytes)
		if at > ready {
			ready = at
		}
	}
	return ready
}

// runReady implements the paper's procedure: a virtual clock advances
// through task completion events; at each instant every ready task (all
// predecessors finished) is mapped in decreasing bottom-level order. The
// ready set is a priority heap keyed by the same order the seed sorted by,
// so tasks are placed in an identical sequence without re-sorting the list
// at every instant.
func (m *mapper) runReady() {
	// remainingPreds[app][taskID] counts unfinished predecessors.
	remainingPreds := make([][]int, len(m.apps))
	total := 0
	for i, a := range m.apps {
		remainingPreds[i] = make([]int, len(a.Graph.Tasks))
		for _, t := range a.Graph.Tasks {
			remainingPreds[i][t.ID] = len(t.In())
		}
		total += len(a.Graph.Tasks)
	}

	ready := pq.Heap[taskRef]{Items: make([]taskRef, 0, total), Less: before}
	for i, a := range m.apps {
		for _, t := range a.Graph.Tasks {
			if len(t.In()) == 0 {
				ready.Push(m.ref(i, t))
			}
		}
	}
	// completions orders mapped-but-not-finished tasks by end time. Tasks
	// ending at one instant are all released before the next is mapped, so
	// their order among themselves changes nothing.
	completions := pq.Heap[completion]{
		Items: make([]completion, 0, total),
		Less:  func(a, b *completion) bool { return a.end < b.end },
	}
	release := func(c completion) {
		for _, e := range c.task.Out() {
			succ := e.To
			remainingPreds[c.app][succ.ID]--
			if remainingPreds[c.app][succ.ID] == 0 {
				ready.Push(m.ref(c.app, succ))
			}
		}
	}

	mapped := 0
	for mapped < total {
		if ready.Len() == 0 {
			if completions.Len() == 0 {
				panic("mapping: no ready tasks and no pending completions")
			}
			// Advance the clock to the next completion (and all
			// completions at the same instant) to release successors.
			c := completions.Pop()
			release(c)
			for completions.Len() > 0 && completions.Items[0].end == c.end {
				release(completions.Pop())
			}
			continue
		}
		ref := ready.Pop()
		m.loadFeeds(ref.task)
		p := m.place(ref.app, ref.task)
		completions.Push(completion{app: ref.app, task: ref.task, end: p.End})
		mapped++
	}
}

// completion is a mapped task's end on the virtual clock.
type completion struct {
	app  int
	task *dag.Task
	end  float64
}

// runGlobal implements the classical aggregated ordering: all tasks of all
// applications are sorted once by decreasing bottom level and mapped in
// that order (predecessors always precede successors since bottom levels
// strictly decrease along edges).
func (m *mapper) runGlobal() {
	var all []taskRef
	for i, a := range m.apps {
		for _, t := range a.Graph.Tasks {
			all = append(all, m.ref(i, t))
		}
	}
	sort.Slice(all, func(i, j int) bool { return before(&all[i], &all[j]) })
	for _, ref := range all {
		m.loadFeeds(ref.task)
		m.place(ref.app, ref.task)
	}
}
