package dag

import "testing"

// ByID returns the tracker's bottom and top levels re-indexed by task ID,
// and its critical path length: the tracker's state in the terms of the
// full passes, for the contract tests (package dag_test) that compare the
// two.
func (lv *Levels) ByID() (bl, tl []float64, length float64) {
	bl, tl = make([]float64, len(lv.pos)), make([]float64, len(lv.pos))
	for id, p := range lv.pos {
		bl[id], tl[id] = lv.bl[p], lv.tl[p]
	}
	return bl, tl, lv.length
}

func TestLevelsDroppedOnMutation(t *testing.T) {
	g, a, _, _, d := diamond(t, 8)
	timeOf := func(t *Task) float64 { return t.SeqGFlop }
	if got := g.Levels(timeOf).length; got != 5 {
		t.Fatalf("diamond length %g, want 5", got)
	}
	e := g.AddTask("e", 1, 10, 0)
	g.MustAddEdge(d, e, 8)
	lv := g.Levels(timeOf)
	if got := lv.length; got != 15 {
		t.Fatalf("length after appending a 10 s task %g, want 15", got)
	}
	if !lv.Critical(e.ID) || !lv.Critical(a.ID) {
		t.Fatal("new exit task and entry must both be critical")
	}
}
