package mapping

import (
	"fmt"
	"math"
	"slices"

	"ptgsched/internal/alloc"
	"ptgsched/internal/dag"
	"ptgsched/internal/platform"
	"ptgsched/internal/pq"
)

// Map schedules the tasks of all allocated applications onto pf. All
// applications are submitted at time 0 (the paper's model; different
// submission times are future work in §8). It is Scratch.Map on a fresh
// scratch, so the schedule it returns is the caller's.
func Map(pf *platform.Platform, apps []*alloc.Allocation, opts Options) *Schedule {
	return new(Scratch).Map(pf, apps, opts)
}

// Scratch is the mapper's state, kept across the batches one worker maps:
// the placements and their processor lists, the task→placement index, the
// translated widths and bottom levels, both heaps. Its buffers grow to the
// largest batch mapped and are reused after, so mapping on a warm scratch
// allocates only while the batches it maps outgrow the ones before. The
// zero value is ready for Map; a Scratch must be confined to one goroutine.
type Scratch struct {
	pf    *platform.Platform
	apps  []*alloc.Allocation
	opts  Options
	sched Schedule

	// placements is the storage of the schedule's placements, sized for the
	// batch before the first is recorded, so a *Placement stays valid for
	// the whole call; procs is the arena their processor lists are cut from,
	// sized to the widest the translated widths allow.
	placements []Placement
	procs      []int

	// avail[k] is the availability view of cluster k, free the all-zero
	// times vector every cluster is loaded from.
	avail []Availability
	free  []float64
	// first[app] is the offset of the application's tasks in the per-task
	// vectors below, which hold the batch's tasks back to back, by task ID
	// within an application; first[len(apps)] is the batch's task count.
	first []int
	// want[k·n + first[app] + id] is the translated allocation width of the
	// task on cluster k, for n tasks in the batch.
	want []int
	// bl is each task's bottom level under its reference allocation
	// (computation only, per §5); preds counts its unfinished predecessors
	// while the ready-task procedure runs.
	bl    []float64
	preds []int
	// feeds is the per-task data-ready buffer, refilled before the cluster
	// scan of each placement.
	feeds []feed

	ready       pq.Heap[taskRef]
	completions pq.Heap[completion]
	all         []taskRef
}

// Map is the package-level Map on the scratch's buffers. The returned
// Schedule belongs to the scratch: it is valid until the next Map or
// Release on sc. The schedule is the one Map computes, placement for
// placement.
func (sc *Scratch) Map(pf *platform.Platform, apps []*alloc.Allocation, opts Options) *Schedule {
	sc.load(pf, apps, opts)
	switch opts.Ordering {
	case ReadyTasks:
		sc.runReady()
	case Global:
		sc.runGlobal()
	default:
		panic(fmt.Sprintf("mapping: unknown ordering %d", int(opts.Ordering)))
	}
	return &sc.sched
}

// Release drops everything the scratch references of the last batch — its
// schedule, the placements' tasks, the applications — keeping only
// buffers, so a parked scratch pins none of the batch's graphs. The
// Schedule Map returned is invalid after it.
func (sc *Scratch) Release() {
	clear(sc.placements[:cap(sc.placements)])
	clear(sc.sched.byTask)
	sc.sched = Schedule{Placements: sc.sched.Placements[:0], byTask: sc.sched.byTask}
	clear(sc.ready.Items[:cap(sc.ready.Items)])
	clear(sc.completions.Items[:cap(sc.completions.Items)])
	clear(sc.all[:cap(sc.all)])
	sc.pf, sc.apps = nil, nil
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

// load readies the scratch for one batch: every processor free at 0, the
// schedule empty, the widths and bottom levels computed.
func (sc *Scratch) load(pf *platform.Platform, apps []*alloc.Allocation, opts Options) {
	sc.pf, sc.apps, sc.opts = pf, apps, opts
	sc.first = slices.Grow(sc.first[:0], len(apps)+1)
	n := 0
	for _, a := range apps {
		sc.first = append(sc.first, n)
		n += len(a.Graph.Tasks)
	}
	sc.first = append(sc.first, n)

	// Every processor is free at 0: one zero vector loads every cluster.
	largest := 0
	for _, c := range pf.Clusters {
		largest = max(largest, c.Procs)
	}
	sc.free = grown(sc.free, largest)
	clear(sc.free)
	sc.avail = grown(sc.avail, len(pf.Clusters))
	for k, c := range pf.Clusters {
		sc.avail[k].Load(sc.free[:c.Procs])
	}

	// A placement takes at most its widest translation: the arena holds
	// every task at that width.
	sc.want = grown(sc.want, len(pf.Clusters)*n)
	sc.bl = grown(sc.bl, n)
	width := 0
	for i, a := range apps {
		base := sc.first[i]
		for id, p := range a.Procs[:len(a.Graph.Tasks)] {
			widest := 0
			for k, c := range pf.Clusters {
				q := alloc.Translate(p, a.Ref, c)
				sc.want[k*n+base+id] = q
				widest = max(widest, q)
			}
			width += widest
		}
		a.Graph.BottomLevelsInto(sc.bl[base:base+len(a.Graph.Tasks)], a.TimeOf)
	}
	sc.procs = slices.Grow(sc.procs[:0], width)
	sc.placements = slices.Grow(sc.placements[:0], n)

	sc.sched.Platform, sc.sched.Apps = pf, apps
	sc.sched.Placements = slices.Grow(sc.sched.Placements[:0], n)
	if sc.sched.byTask == nil {
		sc.sched.byTask = make(map[*dag.Task]*Placement, n)
	} else {
		clear(sc.sched.byTask)
	}
}

// grown returns s resized to n, reusing its storage when large enough; the
// contents are unspecified.
func grown[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// ref returns task t of application app under its ready priority.
func (sc *Scratch) ref(app int, t *dag.Task) taskRef {
	return taskRef{bl: sc.bl[sc.first[app]+t.ID], app: app, task: t}
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
// placement. sc.feeds must already hold the task's predecessor feeds.
func (sc *Scratch) place(app int, t *dag.Task) *Placement {
	var best candidate
	found := false
	n, i := sc.first[len(sc.apps)], sc.first[app]+t.ID
	for _, c := range sc.pf.Clusters {
		cand := candidate{cluster: c}
		cand.procs, cand.start, cand.end = sc.avail[c.Index].Best(
			t, c.Speed, sc.want[c.Index*n+i], sc.dataReady(c), !sc.opts.NoPacking)
		if !found || better(cand, best) {
			best = cand
			found = true
		}
	}
	if !found {
		panic("mapping: no cluster available")
	}

	used := len(sc.procs)
	sc.procs = sc.procs[:used+best.procs]
	procs := sc.procs[used:len(sc.procs):len(sc.procs)]
	sc.avail[best.cluster.Index].Reserve(procs, best.end)

	sc.placements = append(sc.placements, Placement{
		App:     app,
		Index:   len(sc.sched.Placements),
		Task:    t,
		Cluster: best.cluster,
		Procs:   procs,
		Start:   best.start,
		End:     best.end,
	})
	p := &sc.placements[len(sc.placements)-1]
	sc.sched.Placements = append(sc.sched.Placements, p)
	sc.sched.byTask[t] = p
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

// loadFeeds fills sc.feeds with the placements of t's predecessors: for
// each candidate cluster, dataReady then yields the latest predecessor end
// plus the (contention-free) redistribution estimate.
func (sc *Scratch) loadFeeds(t *dag.Task) {
	sc.feeds = sc.feeds[:0]
	for _, e := range t.In() {
		p := sc.sched.byTask[e.From]
		if p == nil {
			panic(fmt.Sprintf("mapping: predecessor %q not yet placed", e.From.Name))
		}
		sc.feeds = append(sc.feeds, feed{end: p.End, from: p.Cluster, bytes: e.Bytes})
	}
}

// dataReady returns the earliest time all predecessor data can be at c,
// given the feeds loaded by loadFeeds.
func (sc *Scratch) dataReady(c *platform.Cluster) float64 {
	ready := 0.0
	for _, f := range sc.feeds {
		at := f.end + sc.pf.TransferTime(f.from, c, f.bytes)
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
func (sc *Scratch) runReady() {
	total := sc.first[len(sc.apps)]
	sc.preds = grown(sc.preds, total)
	for i, a := range sc.apps {
		for _, t := range a.Graph.Tasks {
			sc.preds[sc.first[i]+t.ID] = len(t.In())
		}
	}

	sc.ready = pq.Heap[taskRef]{Items: sc.ready.Items[:0], Less: before}
	for i, a := range sc.apps {
		for _, t := range a.Graph.Tasks {
			if len(t.In()) == 0 {
				sc.ready.Push(sc.ref(i, t))
			}
		}
	}
	// completions orders mapped-but-not-finished tasks by end time. Tasks
	// ending at one instant are all released before the next is mapped, so
	// their order among themselves changes nothing.
	sc.completions = pq.Heap[completion]{
		Items: sc.completions.Items[:0],
		Less:  func(a, b *completion) bool { return a.end < b.end },
	}

	mapped := 0
	for mapped < total {
		if sc.ready.Len() == 0 {
			if sc.completions.Len() == 0 {
				panic("mapping: no ready tasks and no pending completions")
			}
			// Advance the clock to the next completion (and all
			// completions at the same instant) to release successors.
			c := sc.completions.Pop()
			sc.release(c)
			for sc.completions.Len() > 0 && sc.completions.Items[0].end == c.end {
				sc.release(sc.completions.Pop())
			}
			continue
		}
		ref := sc.ready.Pop()
		sc.loadFeeds(ref.task)
		p := sc.place(ref.app, ref.task)
		sc.completions.Push(completion{app: ref.app, task: ref.task, end: p.End})
		mapped++
	}
}

// release marks a completed task's successors as one predecessor closer to
// ready, pushing those it frees.
func (sc *Scratch) release(c completion) {
	for _, e := range c.task.Out() {
		succ := e.To
		i := sc.first[c.app] + succ.ID
		sc.preds[i]--
		if sc.preds[i] == 0 {
			sc.ready.Push(sc.ref(c.app, succ))
		}
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
func (sc *Scratch) runGlobal() {
	all := sc.all[:0]
	for i, a := range sc.apps {
		for _, t := range a.Graph.Tasks {
			all = append(all, sc.ref(i, t))
		}
	}
	slices.SortFunc(all, func(a, b taskRef) int {
		if before(&a, &b) {
			return -1
		}
		return 1
	})
	sc.all = all
	for _, ref := range all {
		sc.loadFeeds(ref.task)
		sc.place(ref.app, ref.task)
	}
}
