package dag

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// diamond builds the 4-task diamond A -> {B, C} -> D with unit works and
// the given edge volume.
func diamond(t *testing.T, vol float64) (*Graph, *Task, *Task, *Task, *Task) {
	t.Helper()
	g := New("diamond")
	a := g.AddTask("A", 1e6, 1, 0)
	b := g.AddTask("B", 1e6, 2, 0)
	c := g.AddTask("C", 1e6, 3, 0)
	d := g.AddTask("D", 1e6, 1, 0)
	g.MustAddEdge(a, b, vol)
	g.MustAddEdge(a, c, vol)
	g.MustAddEdge(b, d, vol)
	g.MustAddEdge(c, d, vol)
	return g, a, b, c, d
}

func TestAddTaskAssignsSequentialIDs(t *testing.T) {
	g := New("g")
	for i := 0; i < 5; i++ {
		task := g.AddTask("t", 1, 1, 0)
		if task.ID != i {
			t.Fatalf("task %d got ID %d", i, task.ID)
		}
	}
}

func TestAddEdgeRejectsSelfAndDuplicate(t *testing.T) {
	g := New("g")
	a := g.AddTask("a", 1, 1, 0)
	b := g.AddTask("b", 1, 1, 0)
	if _, err := g.AddEdge(a, a, 0); err == nil {
		t.Error("self edge accepted")
	}
	if _, err := g.AddEdge(a, b, 1); err != nil {
		t.Fatalf("first edge rejected: %v", err)
	}
	if _, err := g.AddEdge(a, b, 1); err == nil {
		t.Error("duplicate edge accepted")
	}
	// NaN passes a "< 0" test, and a flow of NaN bytes never finishes.
	for _, w := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := g.AddEdge(b, a, w); err == nil {
			t.Errorf("edge weight %g accepted", w)
		}
	}
	if len(g.Edges) != 1 {
		t.Errorf("%d edges after the rejections, want 1", len(g.Edges))
	}
}

func TestEntriesAndExits(t *testing.T) {
	g, a, _, _, d := diamond(t, 8)
	es, xs := g.Entries(), g.Exits()
	if len(es) != 1 || es[0] != a {
		t.Errorf("Entries = %v", es)
	}
	if len(xs) != 1 || xs[0] != d {
		t.Errorf("Exits = %v", xs)
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g, _, _, _, _ := diamond(t, 8)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[*Task]int)
	for i, task := range order {
		pos[task] = i
	}
	for _, e := range g.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %s->%s violated in topo order", e.From.Name, e.To.Name)
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := New("cyclic")
	a := g.AddTask("a", 1, 1, 0)
	b := g.AddTask("b", 1, 1, 0)
	c := g.AddTask("c", 1, 1, 0)
	g.MustAddEdge(a, b, 0)
	g.MustAddEdge(b, c, 0)
	g.MustAddEdge(c, a, 0)
	if _, err := g.TopoOrder(); err != ErrCycle {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
	if err := g.Validate(false); err != ErrCycle {
		t.Fatalf("Validate err = %v, want ErrCycle", err)
	}
}

func TestValidateStrictSingleEntryExit(t *testing.T) {
	g := New("two-entries")
	a := g.AddTask("a", 1, 1, 0)
	b := g.AddTask("b", 1, 1, 0)
	c := g.AddTask("c", 1, 1, 0)
	g.MustAddEdge(a, c, 0)
	g.MustAddEdge(b, c, 0)
	if err := g.Validate(false); err != nil {
		t.Fatalf("non-strict Validate: %v", err)
	}
	if err := g.Validate(true); err == nil {
		t.Fatal("strict Validate accepted two entries")
	}
}

func TestValidateRejectsBadAlpha(t *testing.T) {
	g := New("g")
	g.AddTask("a", 1, 1, 1.5)
	if err := g.Validate(false); err == nil {
		t.Fatal("alpha > 1 accepted")
	}
}

func TestPrecedenceLevelsDiamond(t *testing.T) {
	g, a, b, c, d := diamond(t, 8)
	lv := g.PrecedenceLevels()
	want := map[*Task]int{a: 0, b: 1, c: 1, d: 2}
	for task, wl := range want {
		if lv[task.ID] != wl {
			t.Errorf("%s: level %d, want %d", task.Name, lv[task.ID], wl)
		}
	}
}

func TestPrecedenceLevelsWithJumpEdge(t *testing.T) {
	// a -> b -> c plus jump a -> c: c is still at level 2 (longest path).
	g := New("jump")
	a := g.AddTask("a", 1, 1, 0)
	b := g.AddTask("b", 1, 1, 0)
	c := g.AddTask("c", 1, 1, 0)
	g.MustAddEdge(a, b, 0)
	g.MustAddEdge(b, c, 0)
	g.MustAddEdge(a, c, 0)
	lv := g.PrecedenceLevels()
	if lv[c.ID] != 2 {
		t.Fatalf("c at level %d, want 2", lv[c.ID])
	}
}

func TestMaxWidthAndDepth(t *testing.T) {
	g, _, _, _, _ := diamond(t, 8)
	if w := g.MaxWidth(); w != 2 {
		t.Errorf("MaxWidth = %d, want 2", w)
	}
	if d := g.Depth(); d != 3 {
		t.Errorf("Depth = %d, want 3", d)
	}
}

func TestBottomLevelsDiamond(t *testing.T) {
	g, a, b, c, d := diamond(t, 8)
	timeOf := func(t *Task) float64 { return t.SeqGFlop } // 1 GFlop/s
	bl := g.BottomLevels(timeOf, ZeroComm)
	// d=1; b=2+1=3; c=3+1=4; a=1+max(3,4)=5.
	want := map[*Task]float64{d: 1, b: 3, c: 4, a: 5}
	for task, w := range want {
		if bl[task.ID] != w {
			t.Errorf("%s: bottom level %g, want %g", task.Name, bl[task.ID], w)
		}
	}
}

func TestBottomLevelsWithComm(t *testing.T) {
	g, a, _, _, _ := diamond(t, 8)
	timeOf := func(t *Task) float64 { return t.SeqGFlop }
	commOf := func(e *Edge) float64 { return 0.5 }
	bl := g.BottomLevels(timeOf, commOf)
	// d=1; b=2+0.5+1=3.5; c=3+0.5+1=4.5; a=1+0.5+4.5=6.
	if bl[a.ID] != 6 {
		t.Fatalf("a bottom level = %g, want 6", bl[a.ID])
	}
}

func TestTopLevelsDiamond(t *testing.T) {
	g, a, b, c, d := diamond(t, 8)
	timeOf := func(t *Task) float64 { return t.SeqGFlop }
	tl := g.TopLevels(timeOf, ZeroComm)
	want := map[*Task]float64{a: 0, b: 1, c: 1, d: 4} // d: via c = 1+3
	for task, w := range want {
		if tl[task.ID] != w {
			t.Errorf("%s: top level %g, want %g", task.Name, tl[task.ID], w)
		}
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	g, _, _, _, _ := diamond(t, 8)
	timeOf := func(t *Task) float64 { return t.SeqGFlop }
	if cp := g.CriticalPathLength(timeOf, ZeroComm); cp != 5 {
		t.Fatalf("critical path length = %g, want 5", cp)
	}
}

func TestOnCriticalPathMarksChain(t *testing.T) {
	g, a, b, c, d := diamond(t, 8)
	timeOf := func(t *Task) float64 { return t.SeqGFlop }
	lv := g.Levels(timeOf)
	if !lv.Critical(a.ID) || !lv.Critical(c.ID) || !lv.Critical(d.ID) {
		t.Error("critical chain a-c-d not fully marked")
	}
	if lv.Critical(b.ID) {
		t.Error("non-critical task b marked")
	}
}

func TestTotalWork(t *testing.T) {
	g, _, _, _, _ := diamond(t, 8)
	if w := g.TotalWork(); w != 7 {
		t.Fatalf("TotalWork = %g, want 7", w)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g, _, _, _, _ := diamond(t, 8e6)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != g.Name || len(back.Tasks) != len(g.Tasks) || len(back.Edges) != len(g.Edges) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	for i, task := range g.Tasks {
		bt := back.Tasks[i]
		if bt.Name != task.Name || bt.SeqGFlop != task.SeqGFlop || bt.DataElems != task.DataElems {
			t.Errorf("task %d mismatch after round trip", i)
		}
	}
	if back.Edges[0].Bytes != 8e6 {
		t.Errorf("edge bytes = %g, want 8e6", back.Edges[0].Bytes)
	}
}

func TestUnmarshalRejectsOutOfRangeEdge(t *testing.T) {
	var g Graph
	err := json.Unmarshal([]byte(`{"name":"x","tasks":[{"name":"a"}],"edges":[{"from":0,"to":5}]}`), &g)
	if err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestWriteDOT(t *testing.T) {
	g, _, _, _, _ := diamond(t, 8e6)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"digraph", "t0 ->", "GFlop"} {
		if !strings.Contains(out, frag) {
			t.Errorf("DOT output missing %q:\n%s", frag, out)
		}
	}
}

// Every structural change advances the generation, decoding into a graph
// included: a store keyed by the graph's identity must never take new
// content for the content it recorded.
func TestGenerationAdvancesOnEveryStructuralChange(t *testing.T) {
	g, a, _, _, d := diamond(t, 8)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	last := g.Generation()
	step := func(what string, change func()) {
		t.Helper()
		change()
		if g.Generation() <= last {
			t.Fatalf("%s: generation %d after %d", what, g.Generation(), last)
		}
		last = g.Generation()
	}
	step("AddTask", func() { g.AddTask("E", 1e6, 1, 0) })
	step("AddEdge", func() { g.MustAddEdge(a, d, 1) })
	step("Reset", func() { g.Reset("empty") })
	step("UnmarshalJSON", func() {
		if err := json.Unmarshal(data, g); err != nil {
			t.Fatal(err)
		}
	})
}
