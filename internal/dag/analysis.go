package dag

import "fmt"

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
	s.CPWorkG = g.CriticalPathLength(seq)
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
