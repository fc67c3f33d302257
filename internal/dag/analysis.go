package dag

import (
	"fmt"
	"sort"
)

// Stats summarizes a PTG's structure and cost distribution.
type Stats struct {
	Tasks, Edges  int
	Depth         int
	MaxWidth      int
	TotalWorkG    float64 // GFlop
	TotalBytes    float64 // summed edge volumes
	MeanOutDegree float64
	// CPWorkG is the work along one critical path under sequential unit
	// speed, in GFlop.
	CPWorkG float64
	// SerialFraction is CPWorkG / TotalWorkG: 1 for chains, → 0 for wide
	// graphs.
	SerialFraction float64
}

// ComputeStats gathers the structural statistics of g.
func (g *Graph) ComputeStats() Stats {
	s := Stats{Tasks: len(g.Tasks), Edges: len(g.Edges)}
	s.Depth = g.Depth()
	s.MaxWidth = g.MaxWidth()
	s.TotalWorkG = g.TotalWork()
	for _, e := range g.Edges {
		s.TotalBytes += e.Bytes
	}
	if len(g.Tasks) > 0 {
		s.MeanOutDegree = float64(len(g.Edges)) / float64(len(g.Tasks))
	}
	seq := func(t *Task) float64 { return t.SeqGFlop }
	s.CPWorkG = g.CriticalPathLength(seq, ZeroComm)
	if s.TotalWorkG > 0 {
		s.SerialFraction = s.CPWorkG / s.TotalWorkG
	}
	return s
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("%d tasks, %d edges, depth %d, width %d, %.0f GFlop (%.0f%% serial)",
		s.Tasks, s.Edges, s.Depth, s.MaxWidth, s.TotalWorkG, s.SerialFraction*100)
}

// TransitiveReduction returns a copy of g without redundant edges: an edge
// u→v is removed when another path from u to v exists. Precedence is
// preserved exactly; communication volumes of removed edges are dropped
// (the data still flows along the remaining path in the PTG model, where
// every task forwards its full dataset). Generated graphs with jump edges
// often contain such redundancies.
func (g *Graph) TransitiveReduction() *Graph {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	pos := make([]int, len(g.Tasks))
	for i, t := range order {
		pos[t.ID] = i
	}

	// reach[i] is the set of task IDs reachable from order[i] via paths of
	// length >= 1, built backwards.
	reach := make([]map[int]bool, len(g.Tasks))
	red := New(g.Name)
	for _, t := range g.Tasks {
		red.AddTask(t.Name, t.DataElems, t.SeqGFlop, t.Alpha)
	}
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		rs := make(map[int]bool)
		// Consider direct successors in a deterministic order; an edge is
		// redundant if its head is already reachable through a previously
		// kept successor's closure.
		succs := append([]*Edge(nil), t.Out()...)
		sort.Slice(succs, func(a, b int) bool {
			// Farther-away heads (in topological position) are examined
			// last so short edges are preferred as the kept skeleton.
			return pos[succs[a].To.ID] < pos[succs[b].To.ID]
		})
		for _, e := range succs {
			if rs[e.To.ID] {
				continue // redundant: already reachable
			}
			red.MustAddEdge(red.Tasks[t.ID], red.Tasks[e.To.ID], e.Bytes)
			rs[e.To.ID] = true
			for id := range reach[e.To.ID] {
				rs[id] = true
			}
		}
		reach[t.ID] = rs
	}
	return red
}

// Reachable reports whether dst is reachable from src via directed edges.
func (g *Graph) Reachable(src, dst *Task) bool {
	if src == dst {
		return true
	}
	seen := make([]bool, len(g.Tasks))
	stack := []*Task{src}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range t.Out() {
			if e.To == dst {
				return true
			}
			if !seen[e.To.ID] {
				seen[e.To.ID] = true
				stack = append(stack, e.To)
			}
		}
	}
	return false
}
