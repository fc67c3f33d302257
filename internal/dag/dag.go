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
type Graph struct {
	Name  string
	Tasks []*Task
	Edges []*Edge

	// Caches of structure-only analyses; valid while the corresponding
	// slice is non-nil.
	topo      []*Task
	levels    []int
	levelSets [][]*Task
	entries   []*Task
	exits     []*Task
	// tracker is the incremental level tracker handed out by Levels; it
	// caches the graph's structure, so a mutation drops it.
	tracker *Levels
	// Scratch for bottom levels whose values are not returned to callers
	// (CriticalPathLength, CriticalPath).
	scratchBL []float64
}

// invalidate drops the structural caches after a mutation.
func (g *Graph) invalidate() {
	g.topo = nil
	g.levels = nil
	g.levelSets = nil
	g.entries = nil
	g.exits = nil
	g.tracker = nil
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// AddTask appends a task to the graph and returns it. The task's ID is its
// position in g.Tasks.
func (g *Graph) AddTask(name string, dataElems, seqGFlop, alpha float64) *Task {
	t := &Task{
		ID:        len(g.Tasks),
		Name:      name,
		DataElems: dataElems,
		SeqGFlop:  seqGFlop,
		Alpha:     alpha,
	}
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
	e := &Edge{From: from, To: to, Bytes: bytes}
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
	if g.entries == nil {
		es := make([]*Task, 0, 1)
		for _, t := range g.Tasks {
			if len(t.in) == 0 {
				es = append(es, t)
			}
		}
		g.entries = es
	}
	return g.entries
}

// Exits returns the tasks with no successors. The slice is cached; treat it
// as read-only.
func (g *Graph) Exits() []*Task {
	if g.exits == nil {
		xs := make([]*Task, 0, 1)
		for _, t := range g.Tasks {
			if len(t.out) == 0 {
				xs = append(xs, t)
			}
		}
		g.exits = xs
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
	if g.topo != nil {
		return g.topo, nil
	}
	order, err := g.topoOrderUncached()
	if err != nil {
		return nil, err
	}
	g.topo = order
	return order, nil
}

func (g *Graph) topoOrderUncached() ([]*Task, error) {
	indeg := make([]int, len(g.Tasks))
	for _, t := range g.Tasks {
		indeg[t.ID] = len(t.in)
	}
	// Kahn's algorithm with an ID-ordered frontier for determinism.
	var frontier []*Task
	for _, t := range g.Tasks {
		if indeg[t.ID] == 0 {
			frontier = append(frontier, t)
		}
	}
	order := make([]*Task, 0, len(g.Tasks))
	for len(frontier) > 0 {
		t := frontier[0]
		frontier = frontier[1:]
		order = append(order, t)
		for _, e := range t.out {
			indeg[e.To.ID]--
			if indeg[e.To.ID] == 0 {
				frontier = append(frontier, e.To)
			}
		}
	}
	if len(order) != len(g.Tasks) {
		return nil, ErrCycle
	}
	return order, nil
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
