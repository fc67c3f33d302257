package dag

import (
	"testing"
	"testing/quick"
)

func TestComputeStatsDiamond(t *testing.T) {
	g, _, _, _, _ := diamond(t, 8e6)
	s := g.ComputeStats()
	if s.Tasks != 4 || s.Edges != 4 || s.Depth != 3 || s.MaxWidth != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.TotalWorkG != 7 {
		t.Errorf("total work = %g", s.TotalWorkG)
	}
	if s.TotalBytes != 32e6 {
		t.Errorf("total bytes = %g", s.TotalBytes)
	}
	if s.CPWorkG != 5 { // a(1) + c(3) + d(1)
		t.Errorf("cp work = %g", s.CPWorkG)
	}
	if s.SerialFraction != 5.0/7.0 {
		t.Errorf("serial fraction = %g", s.SerialFraction)
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

func TestTransitiveReductionRemovesShortcut(t *testing.T) {
	g := New("jump")
	a := g.AddTask("a", 1, 1, 0)
	b := g.AddTask("b", 1, 1, 0)
	c := g.AddTask("c", 1, 1, 0)
	g.MustAddEdge(a, b, 10)
	g.MustAddEdge(b, c, 10)
	g.MustAddEdge(a, c, 10) // redundant shortcut
	red := g.TransitiveReduction()
	if len(red.Edges) != 2 {
		t.Fatalf("reduced graph has %d edges, want 2", len(red.Edges))
	}
	for _, e := range red.Edges {
		if e.From.Name == "a" && e.To.Name == "c" {
			t.Fatal("shortcut edge survived reduction")
		}
	}
}

func TestTransitiveReductionKeepsDiamond(t *testing.T) {
	g, _, _, _, _ := diamond(t, 8)
	red := g.TransitiveReduction()
	if len(red.Edges) != 4 {
		t.Fatalf("diamond reduced to %d edges, want 4 (no redundancy)", len(red.Edges))
	}
}

func TestReachable(t *testing.T) {
	g, a, b, c, d := diamond(t, 8)
	if !g.Reachable(a, d) {
		t.Error("a should reach d")
	}
	if g.Reachable(b, c) {
		t.Error("b should not reach c")
	}
	if !g.Reachable(b, b) {
		t.Error("a task reaches itself")
	}
	if g.Reachable(d, a) {
		t.Error("reachability should be directed")
	}
}

// Property: transitive reduction preserves reachability and precedence
// levels while never adding edges.
func TestTransitiveReductionProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 12)
		red := g.TransitiveReduction()
		if len(red.Edges) > len(g.Edges) || len(red.Tasks) != len(g.Tasks) {
			return false
		}
		for i := range g.Tasks {
			for j := range g.Tasks {
				if g.Reachable(g.Tasks[i], g.Tasks[j]) != red.Reachable(red.Tasks[i], red.Tasks[j]) {
					return false
				}
			}
		}
		lv, rlv := g.PrecedenceLevels(), red.PrecedenceLevels()
		for i := range lv {
			if lv[i] != rlv[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomDAG builds a random DAG by adding forward edges over a random
// permutation, so it is acyclic by construction.
func randomDAG(seed int64, n int) *Graph {
	g := New("rand")
	for i := 0; i < n; i++ {
		g.AddTask("t", 1, 1+float64((seed>>uint(i%8))&7), 0)
	}
	state := uint64(seed)
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if next(100) < 25 {
				g.MustAddEdge(g.Tasks[i], g.Tasks[j], 1)
			}
		}
	}
	return g
}
