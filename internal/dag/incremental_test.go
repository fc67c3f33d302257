package dag

import (
	"math"
	"math/rand"
	"testing"
)

// shuffledDAG builds a random DAG whose task IDs are not in topological
// order: edges run forward along a random permutation of the IDs.
func shuffledDAG(r *rand.Rand, n int, density float64) *Graph {
	g := New("shuffled")
	for i := 0; i < n; i++ {
		g.AddTask("t", 1, 1, 0)
	}
	perm := r.Perm(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < density {
				g.MustAddEdge(g.Tasks[perm[i]], g.Tasks[perm[j]], 1)
			}
		}
	}
	return g
}

// sameBits reports whether two level vectors are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The tracker's whole contract: after any history of Set/Commit/Revert its
// bottom levels, top levels and length are bit-identical to the full passes
// over the current times, and Revert restores the state before Set.
func TestLevelsMatchFullPasses(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		g := shuffledDAG(r, n, []float64{0, 0.05, 0.2, 0.6}[seed%4])
		times := make([]float64, n)
		for i := range times {
			// Few distinct values, so ties and unchanged levels (the early
			// stops) are common.
			times[i] = float64(r.Intn(4))
		}
		timeOf := func(t *Task) float64 { return times[t.ID] }
		check := func(lv *Levels, when string) {
			t.Helper()
			bl, tl := g.BottomLevels(timeOf, ZeroComm), g.TopLevels(timeOf, ZeroComm)
			if !sameBits(lv.bl, bl) || !sameBits(lv.tl, tl) {
				t.Fatalf("seed %d %s: levels diverge from the full passes\nbl %v\n   %v\ntl %v\n   %v",
					seed, when, lv.bl, bl, lv.tl, tl)
			}
			if cp := g.CriticalPathLength(timeOf, ZeroComm); lv.length != cp {
				t.Fatalf("seed %d %s: length %g, full pass %g", seed, when, lv.length, cp)
			}
			for id := range g.Tasks {
				if want := tl[id]+bl[id] >= lv.length*(1-1e-9); lv.Critical(id) != want {
					t.Fatalf("seed %d %s: Critical(%d) = %v, want %v", seed, when, id, !want, want)
				}
			}
			for i, d := range lv.dirty {
				if d {
					t.Fatalf("seed %d %s: position %d left dirty", seed, when, i)
				}
			}
		}
		lv := g.Levels(timeOf)
		check(lv, "after init")
		for step := 0; step < 100; step++ {
			id, v := r.Intn(n), float64(r.Intn(4))
			old := times[id]
			times[id] = v
			got := lv.Set(id, v)
			if want := g.CriticalPathLength(timeOf, ZeroComm); got != want {
				t.Fatalf("seed %d step %d: Set returned length %g, full pass %g", seed, step, got, want)
			}
			if r.Intn(3) == 0 {
				lv.Revert()
				times[id] = old
				check(lv, "after Revert")
			} else {
				lv.Commit()
				check(lv, "after Commit")
			}
			if lv.Time(id) != times[id] {
				t.Fatalf("seed %d step %d: Time(%d) = %g, want %g", seed, step, id, lv.Time(id), times[id])
			}
		}
		// A reset must not depend on what the tracker held before.
		check(g.Levels(timeOf), "after reset")
	}
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
