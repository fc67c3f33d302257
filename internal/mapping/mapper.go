package mapping

import (
	"fmt"
	"math"
	"sort"

	"ptgsched/internal/alloc"
	"ptgsched/internal/cost"
	"ptgsched/internal/dag"
	"ptgsched/internal/platform"
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

// taskRef identifies one task of one application.
type taskRef struct {
	app  int
	task *dag.Task
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
	m.avail = make([]Availability, len(pf.Clusters))
	for k, c := range pf.Clusters {
		slots := make([]procSlot, c.Procs)
		for i := range slots {
			slots[i] = procSlot{time: 0, proc: i}
		}
		m.avail[k] = Availability{slots: slots, scratch: make([]procSlot, 0, c.Procs)}
	}
	m.want = make([][][]int, len(apps))
	m.bl = make([][]float64, len(apps))
	for i, a := range apps {
		m.want[i] = alloc.TranslateBatch(a.Procs, a.Ref, pf.Clusters)
		m.bl[i] = a.Graph.BottomLevels(a.TimeOf, dag.ZeroComm)
	}
	return m
}

// priority orders by decreasing bottom level; ties by application then task
// ID for determinism.
func (m *mapper) less(a, b taskRef) bool {
	ba, bb := m.bl[a.app][a.task.ID], m.bl[b.app][b.task.ID]
	if ba != bb {
		return ba > bb
	}
	if a.app != b.app {
		return a.app < b.app
	}
	return a.task.ID < b.task.ID
}

// candidate is one (cluster, width) option for a task.
type candidate struct {
	cluster *platform.Cluster
	procs   int
	start   float64
	end     float64
}

// bestOnCluster evaluates placing task t of application app on cluster c.
// dataReady is the earliest time all predecessor data can be at c. The
// translated allocation width may be reduced by allocation packing. The
// evaluation reads the cluster's shared sorted availability view directly:
// no per-candidate allocation or sort.
func (m *mapper) bestOnCluster(app int, t *dag.Task, c *platform.Cluster, dataReady float64) candidate {
	want := m.want[app][c.Index][t.ID]
	slots := m.avail[c.Index].slots

	best := candidate{cluster: c, procs: want}
	best.start = math.Max(dataReady, slots[want-1].time)
	best.end = best.start + cost.TaskTime(t, c.Speed, want)
	if m.opts.NoPacking {
		return best
	}
	// Allocation packing (§5): accept a narrower allocation iff the task
	// starts earlier and finishes no later. Among admissible widths prefer
	// the earliest finish, then the earliest start, then the widest
	// allocation.
	for q := want - 1; q >= 1; q-- {
		start := math.Max(dataReady, slots[q-1].time)
		if start >= best.start {
			// Narrower cannot start later than a wider allocation's
			// processors allow; once start stops improving, no smaller q
			// will help (slots are sorted by time).
			break
		}
		if end := start + cost.TaskTime(t, c.Speed, q); end <= best.end {
			best = candidate{cluster: c, procs: q, start: start, end: end}
		}
	}
	return best
}

// place maps task t of application app, choosing the earliest-finish
// candidate across clusters (ties: earlier start, then fewer processors,
// then cluster index). It reserves the processors and records the
// placement. m.feeds must already hold the task's predecessor feeds.
func (m *mapper) place(app int, t *dag.Task) *Placement {
	var best candidate
	found := false
	for _, c := range m.pf.Clusters {
		cand := m.bestOnCluster(app, t, c, m.dataReady(c))
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

	// completions orders mapped-but-not-finished tasks by end time.
	var completions completionHeap

	ready := readyHeap{m: m, refs: make([]taskRef, 0, total)}
	for i, a := range m.apps {
		for _, t := range a.Graph.Tasks {
			if len(t.In()) == 0 {
				ready.refs = append(ready.refs, taskRef{i, t})
			}
		}
	}
	ready.init()
	completions.grow(total)

	mapped := 0
	for mapped < total {
		if ready.len() == 0 {
			if completions.len() == 0 {
				panic("mapping: no ready tasks and no pending completions")
			}
			// Advance the clock to the next completion (and all
			// completions at the same instant) to release successors.
			c := completions.pop()
			m.release(c, remainingPreds, &ready)
			for completions.len() > 0 && completions.heap[0].end == c.end {
				m.release(completions.pop(), remainingPreds, &ready)
			}
			continue
		}
		ref := ready.pop()
		m.loadFeeds(ref.task)
		p := m.place(ref.app, ref.task)
		completions.push(completion{ref: ref, end: p.End})
		mapped++
	}
}

func (m *mapper) release(c completion, remainingPreds [][]int, ready *readyHeap) {
	for _, e := range c.ref.task.Out() {
		succ := e.To
		remainingPreds[c.ref.app][succ.ID]--
		if remainingPreds[c.ref.app][succ.ID] == 0 {
			ready.push(taskRef{c.ref.app, succ})
		}
	}
}

// runGlobal implements the classical aggregated ordering: all tasks of all
// applications are sorted once by decreasing bottom level and mapped in
// that order (predecessors always precede successors since bottom levels
// strictly decrease along edges).
func (m *mapper) runGlobal() {
	var all []taskRef
	for i, a := range m.apps {
		for _, t := range a.Graph.Tasks {
			all = append(all, taskRef{i, t})
		}
	}
	sort.Slice(all, func(i, j int) bool { return m.less(all[i], all[j]) })
	for _, ref := range all {
		m.loadFeeds(ref.task)
		m.place(ref.app, ref.task)
	}
}

// readyHeap is a priority heap of ready tasks ordered by the mapper's
// priority (decreasing bottom level, ties by application then task ID).
// The heap stores concrete taskRefs — unlike container/heap, pushes do not
// box values into interfaces, which dominated the seed's allocation count.
type readyHeap struct {
	m    *mapper
	refs []taskRef
}

func (h *readyHeap) len() int { return len(h.refs) }

func (h *readyHeap) init() {
	for i := len(h.refs)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *readyHeap) push(ref taskRef) {
	h.refs = append(h.refs, ref)
	i := len(h.refs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.m.less(h.refs[i], h.refs[parent]) {
			break
		}
		h.refs[i], h.refs[parent] = h.refs[parent], h.refs[i]
		i = parent
	}
}

func (h *readyHeap) pop() taskRef {
	top := h.refs[0]
	n := len(h.refs) - 1
	h.refs[0] = h.refs[n]
	h.refs = h.refs[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

func (h *readyHeap) down(i int) {
	n := len(h.refs)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		next := l
		if r := l + 1; r < n && h.m.less(h.refs[r], h.refs[l]) {
			next = r
		}
		if !h.m.less(h.refs[next], h.refs[i]) {
			return
		}
		h.refs[i], h.refs[next] = h.refs[next], h.refs[i]
		i = next
	}
}

type completion struct {
	ref taskRef
	end float64
}

// completionHeap is a boxing-free min-heap of completions keyed by end time.
type completionHeap struct {
	heap []completion
}

func (h *completionHeap) len() int { return len(h.heap) }

func (h *completionHeap) grow(n int) {
	if cap(h.heap) < n {
		h.heap = append(make([]completion, 0, n), h.heap...)
	}
}

func (h *completionHeap) push(c completion) {
	h.heap = append(h.heap, c)
	i := len(h.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.heap[i].end >= h.heap[parent].end {
			break
		}
		h.heap[i], h.heap[parent] = h.heap[parent], h.heap[i]
		i = parent
	}
}

func (h *completionHeap) pop() completion {
	top := h.heap[0]
	n := len(h.heap) - 1
	h.heap[0] = h.heap[n]
	h.heap = h.heap[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		next := l
		if r := l + 1; r < n && h.heap[r].end < h.heap[l].end {
			next = r
		}
		if h.heap[next].end >= h.heap[i].end {
			break
		}
		h.heap[i], h.heap[next] = h.heap[next], h.heap[i]
		i = next
	}
	return top
}
