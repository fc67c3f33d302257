// Package dag implements the parallel task graph (PTG) model of the paper:
// a directed acyclic graph whose vertices are moldable data-parallel tasks
// and whose edges carry the amount of data exchanged between tasks (§2).
//
// The package is purely structural: task durations on a given platform are
// provided by the cost package; scheduling lives in alloc, mapping and core.
//
// Concurrency: a Graph confines its cached analyses (and their shared
// scratch buffers) to one goroutine at a time — see the Graph doc comment.
// Distinct graphs are fully independent; every scheduling pipeline in this
// module generates or owns its graphs privately, which is what lets the
// service and experiment layers parallelize over shared platforms.
package dag

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Task is a data-parallel (moldable) task: a node of a PTG. Its sequential
// work and Amdahl fraction determine its execution time on any number of
// processors of any cluster (see the cost package).
type Task struct {
	// ID is the task's index within its graph's Tasks slice.
	ID int
	// Name is a human-readable label, unique within the graph.
	Name string
	// DataElems is the size d of the dataset the task operates on, in
	// double-precision elements (§2: 4M ≤ d ≤ 121M).
	DataElems float64
	// SeqGFlop is the task's sequential work in GFlop.
	SeqGFlop float64
	// Alpha is the non-parallelizable fraction of the task per Amdahl's
	// law (§2: drawn uniformly in [0, 0.25]).
	Alpha float64

	in, out []*Edge
}

// Edge is a precedence/communication dependence between two tasks. Bytes is
// the volume of data the source must send to the destination (§2: 8·d bytes
// where d is the producer's dataset size).
type Edge struct {
	From, To *Task
	Bytes    float64
}

// Graph is a parallel task graph. Create one with New, add tasks with
// AddTask and dependences with AddEdge, then call Validate (or any of the
// analyses, which validate lazily by panicking on cycles).
//
// Structural analyses (TopoOrder, PrecedenceLevels, LevelSets, Entries,
// Exits) are cached on the graph and invalidated by AddTask/AddEdge, and
// the level analyses share graph-owned buffers (the Levels tracker the
// constrained allocation procedure drives through thousands of growth
// steps, a bottom-level scratch). Returned slices are therefore shared —
// callers must treat them as read-only — and a Graph must not be analyzed
// from multiple goroutines concurrently (scheduling pipelines own their
// graphs, so this matches how every caller in this module behaves).
//
// Reset empties a graph for new content and keeps its storage: the Task and
// Edge objects, their adjacency lists and the analyses' buffers are reused
// by the AddTask, AddEdge and analysis calls that follow, so a worker that
// regenerates its graphs in place allocates only while they outgrow the
// largest content they held. Every *Task and *Edge obtained before a Reset
// is recycled by it.
type Graph struct {
	Name  string
	Tasks []*Task
	Edges []*Edge

	// gen counts the structural changes: AddTask, AddEdge and Reset each
	// increment it.
	gen uint64
	// spareTasks and spareEdges hold the objects of the largest content
	// since the first Reset, in ID and edge order; AddTask and AddEdge take
	// the one at their index instead of allocating.
	spareTasks []*Task
	spareEdges []*Edge

	// Caches of structure-only analyses; a cache is valid while its bit is
	// set in cached, and its buffer is kept across invalidations.
	cached    analysis
	topo      []*Task
	levels    []int
	levelSets [][]*Task
	levelFlat []*Task
	entries   []*Task
	exits     []*Task
	// counts is the integer scratch of TopoOrder and LevelSets.
	counts []int
	// tracker is the incremental level tracker handed out by Levels; it
	// caches the graph's structure, so a mutation rebuilds it.
	tracker *Levels
	// Scratch for bottom levels whose values are not returned to callers
	// (CriticalPathLength, CriticalPath).
	scratchBL []float64
}

// analysis names one cached analysis of a Graph.
type analysis uint8

const (
	hasTopo analysis = 1 << iota
	hasLevels
	hasLevelSets
	hasEntries
	hasExits
	hasTracker
)

// invalidate records a structural change: it drops the cached analyses
// (keeping their buffers) and advances the generation.
func (g *Graph) invalidate() {
	g.cached = 0
	g.gen++
}

// Generation returns a counter that every AddTask, AddEdge and Reset on g
// advances: two equal readings bracket no structural change. Stores keyed
// by a graph's identity (alloc.Traces) compare it to tell a graph they
// have seen from one regenerated in place.
func (g *Graph) Generation() uint64 { return g.gen }

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// Reset empties g and renames it, keeping its storage for the content that
// follows (see Graph). Apart from Generation, a reset graph behaves as
// New(name) does.
func (g *Graph) Reset(name string) {
	if len(g.Tasks) > len(g.spareTasks) {
		g.spareTasks = g.Tasks
	}
	if len(g.Edges) > len(g.spareEdges) {
		g.spareEdges = g.Edges
	}
	g.Name = name
	g.Tasks = g.spareTasks[:0]
	g.Edges = g.spareEdges[:0]
	g.invalidate()
}

// AddTask appends a task to the graph and returns it. The task's ID is its
// position in g.Tasks.
func (g *Graph) AddTask(name string, dataElems, seqGFlop, alpha float64) *Task {
	id := len(g.Tasks)
	var t *Task
	if id < len(g.spareTasks) {
		t = g.spareTasks[id]
		*t = Task{in: t.in[:0], out: t.out[:0]}
	} else {
		t = new(Task)
	}
	t.ID, t.Name, t.DataElems, t.SeqGFlop, t.Alpha = id, name, dataElems, seqGFlop, alpha
	g.Tasks = append(g.Tasks, t)
	g.invalidate()
	return t
}

// AddEdge records that from must complete before to starts, transferring
// the given number of bytes. Duplicate and self edges are rejected.
func (g *Graph) AddEdge(from, to *Task, bytes float64) (*Edge, error) {
	if from == to {
		return nil, fmt.Errorf("dag: self edge on task %q", from.Name)
	}
	// Not "bytes < 0", which NaN passes.
	if !(bytes >= 0) || math.IsInf(bytes, 1) {
		return nil, fmt.Errorf("dag: negative or non-finite edge weight %g on %q->%q", bytes, from.Name, to.Name)
	}
	for _, e := range from.out {
		if e.To == to {
			return nil, fmt.Errorf("dag: duplicate edge %q->%q", from.Name, to.Name)
		}
	}
	var e *Edge
	if i := len(g.Edges); i < len(g.spareEdges) {
		e = g.spareEdges[i]
	} else {
		e = new(Edge)
	}
	*e = Edge{From: from, To: to, Bytes: bytes}
	g.Edges = append(g.Edges, e)
	from.out = append(from.out, e)
	to.in = append(to.in, e)
	g.invalidate()
	return e, nil
}

// MustAddEdge is AddEdge that panics on error; intended for generators whose
// construction logic guarantees validity.
func (g *Graph) MustAddEdge(from, to *Task, bytes float64) *Edge {
	e, err := g.AddEdge(from, to, bytes)
	if err != nil {
		panic(err)
	}
	return e
}

// In returns the incoming edges of t.
func (t *Task) In() []*Edge { return t.in }

// Out returns the outgoing edges of t.
func (t *Task) Out() []*Edge { return t.out }

// Entries returns the tasks with no predecessors. The slice is cached;
// treat it as read-only.
func (g *Graph) Entries() []*Task {
	if g.cached&hasEntries == 0 {
		es := g.entries[:0]
		for _, t := range g.Tasks {
			if len(t.in) == 0 {
				es = append(es, t)
			}
		}
		g.entries = es
		g.cached |= hasEntries
	}
	return g.entries
}

// Exits returns the tasks with no successors. The slice is cached; treat it
// as read-only.
func (g *Graph) Exits() []*Task {
	if g.cached&hasExits == 0 {
		xs := g.exits[:0]
		for _, t := range g.Tasks {
			if len(t.out) == 0 {
				xs = append(xs, t)
			}
		}
		g.exits = xs
		g.cached |= hasExits
	}
	return g.exits
}

// ErrCycle is returned by Validate and TopoOrder when the graph contains a
// cycle and therefore is not a DAG.
var ErrCycle = errors.New("dag: graph contains a cycle")

// TopoOrder returns the tasks in a topological order (ties broken by task
// ID, so the order is deterministic), or ErrCycle. The order is cached
// while the graph is unmodified; treat the slice as read-only.
func (g *Graph) TopoOrder() ([]*Task, error) {
	if g.cached&hasTopo == 0 {
		if err := g.topoOrder(); err != nil {
			return nil, err
		}
		g.cached |= hasTopo
	}
	return g.topo, nil
}

// topoOrder computes the order into g.topo by Kahn's algorithm with an
// ID-ordered frontier for determinism. The frontier is a FIFO queue whose
// pops are the order itself, so the order's tail beyond the task being
// expanded is the queue.
func (g *Graph) topoOrder() error {
	n := len(g.Tasks)
	indeg := slices.Grow(g.counts[:0], n)[:n]
	order := slices.Grow(g.topo[:0], n)
	for _, t := range g.Tasks {
		indeg[t.ID] = len(t.in)
		if len(t.in) == 0 {
			order = append(order, t)
		}
	}
	for i := 0; i < len(order); i++ {
		for _, e := range order[i].out {
			indeg[e.To.ID]--
			if indeg[e.To.ID] == 0 {
				order = append(order, e.To)
			}
		}
	}
	g.counts, g.topo = indeg, order
	if len(order) != n {
		return ErrCycle
	}
	return nil
}

// Validate checks structural invariants: at least one task, acyclicity,
// consistent IDs, and that the graph has a single entry and a single exit
// task when strict is true (§2 assumes single-entry single-exit PTGs; the
// generators guarantee it, imported graphs may not).
func (g *Graph) Validate(strict bool) error {
	if len(g.Tasks) == 0 {
		return errors.New("dag: graph has no tasks")
	}
	for i, t := range g.Tasks {
		if t.ID != i {
			return fmt.Errorf("dag: task %q has ID %d at position %d", t.Name, t.ID, i)
		}
		if t.DataElems < 0 || t.SeqGFlop < 0 {
			return fmt.Errorf("dag: task %q has negative size or work", t.Name)
		}
		if t.Alpha < 0 || t.Alpha > 1 {
			return fmt.Errorf("dag: task %q has Amdahl fraction %g outside [0,1]", t.Name, t.Alpha)
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	if strict {
		if n := len(g.Entries()); n != 1 {
			return fmt.Errorf("dag: graph has %d entry tasks, want 1", n)
		}
		if n := len(g.Exits()); n != 1 {
			return fmt.Errorf("dag: graph has %d exit tasks, want 1", n)
		}
	}
	return nil
}

// TotalWork returns the sum of the sequential works of all tasks in GFlop.
// This is the "amount of work" characteristic used by the PS-work and
// WPS-work strategies (§6).
func (g *Graph) TotalWork() float64 {
	w := 0.0
	for _, t := range g.Tasks {
		w += t.SeqGFlop
	}
	return w
}
