package dag_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
)

// shuffledDAG builds a DAG whose task IDs are not in topological order:
// edges run forward along perm, a permutation of the IDs, wherever edge —
// asked once per pair of ranks, in lexicographic order — says so.
func shuffledDAG(perm []int, edge func() bool) *dag.Graph {
	g := dag.New("shuffled")
	for range perm {
		g.AddTask("t", 1, 1, 0)
	}
	for i := range perm {
		for j := i + 1; j < len(perm); j++ {
			if edge() {
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

// The ways a history changes one task's time.
const (
	opCommit = iota // Set, then Commit
	opRevert        // Set, then Revert
	opUpdate        // Update
	numOps
)

// trackerCheck drives a graph's tracker through a history of changes and
// holds it to its whole contract: after every Set/Commit/Revert/Update its
// bottom levels, top levels, length, Critical and Time are bit-identical to
// the full passes over the current times, Set returns the new length, and
// Revert restores the state before Set.
type trackerCheck struct {
	t     *testing.T
	g     *dag.Graph
	times []float64
	lv    *dag.Levels
}

func (c *trackerCheck) timeOf(t *dag.Task) float64 { return c.times[t.ID] }

func (c *trackerCheck) reset() {
	c.lv = c.g.Levels(c.timeOf)
	c.check("after reset")
}

func (c *trackerCheck) check(when string) {
	c.t.Helper()
	bl, tl := c.g.BottomLevels(c.timeOf, dag.ZeroComm), c.g.TopLevels(c.timeOf, dag.ZeroComm)
	cp := c.g.CriticalPathLength(c.timeOf, dag.ZeroComm)
	gotBL, gotTL, length := c.lv.ByID()
	if !sameBits(gotBL, bl) || !sameBits(gotTL, tl) {
		c.t.Fatalf("%s: levels diverge from the full passes\nbl %v\n   %v\ntl %v\n   %v", when, gotBL, bl, gotTL, tl)
	}
	if math.Float64bits(length) != math.Float64bits(cp) {
		c.t.Fatalf("%s: length %g, full pass %g", when, length, cp)
	}
	for id := range c.g.Tasks {
		if want := tl[id]+bl[id] >= cp*(1-1e-9); c.lv.Critical(id) != want {
			c.t.Fatalf("%s: Critical(%d) = %v, want %v", when, id, !want, want)
		}
		if got := c.lv.Time(id); math.Float64bits(got) != math.Float64bits(c.times[id]) {
			c.t.Fatalf("%s: Time(%d) = %g, want %g", when, id, got, c.times[id])
		}
	}
}

func (c *trackerCheck) step(id int, v float64, op int) {
	c.t.Helper()
	old := c.times[id]
	c.times[id] = v
	if op == opUpdate {
		c.lv.Update(id, v)
		c.check(fmt.Sprintf("after Update(%d, %g)", id, v))
		return
	}
	got, want := c.lv.Set(id, v), c.g.CriticalPathLength(c.timeOf, dag.ZeroComm)
	if math.Float64bits(got) != math.Float64bits(want) {
		c.t.Fatalf("Set(%d, %g) returned length %g, full pass %g", id, v, got, want)
	}
	if op == opRevert {
		c.lv.Revert()
		c.times[id] = old
		c.check(fmt.Sprintf("after Set(%d, %g) and Revert", id, v))
		return
	}
	c.lv.Commit()
	c.check(fmt.Sprintf("after Set(%d, %g) and Commit", id, v))
}

// randomHistory runs steps random changes. With coarse times there are few
// distinct values, so ties and levels a change leaves where they were are
// common; otherwise times are arbitrary floats, so every sum rounds.
func (c *trackerCheck) randomHistory(r *rand.Rand, steps int, coarse bool) {
	draw := func() float64 {
		if coarse {
			return float64(r.Intn(4))
		}
		return 10 * r.Float64()
	}
	c.times = make([]float64, len(c.g.Tasks))
	for i := range c.times {
		c.times[i] = draw()
	}
	c.reset()
	for i := 0; i < steps; i++ {
		c.step(r.Intn(len(c.times)), draw(), r.Intn(numOps))
	}
	// A reset must not depend on what the tracker held before.
	c.reset()
}

func TestLevelsMatchFullPasses(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		density := []float64{0, 0.05, 0.2, 0.6}[seed%4]
		g := shuffledDAG(r.Perm(1+r.Intn(40)), func() bool { return r.Float64() < density })
		t.Run(fmt.Sprintf("shuffled/seed=%d", seed), func(t *testing.T) {
			(&trackerCheck{t: t, g: g}).randomHistory(r, 100, seed%8 < 4)
		})
	}
	// The layered shapes the allocator grows, past the sizes the campaigns
	// generate.
	for i, n := range []int{3, 10, 20, 50, 120, 300} {
		for j, width := range []float64{0.2, 0.5, 0.8} {
			cfg := daggen.RandomConfig{Tasks: n, Width: width, Regularity: []float64{0.2, 0.8}[(i+j)%2],
				Density: []float64{0.2, 0.8}[j%2], Jump: []int{1, 2, 4}[(i+j)%3], Complexity: daggen.Mixed}
			t.Run(fmt.Sprintf("layered/n=%d/width=%g", n, width), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(100*i + j)))
				(&trackerCheck{t: t, g: daggen.Random(cfg, r)}).randomHistory(r, 60, j == 1)
			})
		}
	}
}

// FuzzLevelsMatchFullPasses holds the tracker to the same contract over a
// fuzzed DAG (size, ID permutation, edge bits), fuzzed times and a fuzzed
// history: two bytes per change — the task, then the new time (bit 7: a
// non-integer one) and the way it is applied (bits 2–3).
func FuzzLevelsMatchFullPasses(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{}, []byte{0, 1})
	f.Add(int64(2), uint8(5), []byte{0xff}, []byte{0, 3, 5, 0x8b, 2, 6, 4, 0x0c, 1, 0})
	f.Add(int64(3), uint8(23), []byte{0x5a, 0x13, 0xc4}, []byte{20, 0x07, 3, 0x88, 11, 0x0e, 0, 0x02, 23, 0x95})
	f.Fuzz(func(t *testing.T, seed int64, size uint8, edges, ops []byte) {
		r := rand.New(rand.NewSource(seed))
		n, pair := 1+int(size)%32, 0
		g := shuffledDAG(r.Perm(n), func() bool {
			k := pair
			pair++
			return len(edges) > 0 && edges[k/8%len(edges)]>>(k%8)&1 == 1
		})
		c := &trackerCheck{t: t, g: g, times: make([]float64, n)}
		for i := range c.times {
			c.times[i] = float64(r.Intn(4))
		}
		c.reset()
		for ; len(ops) >= 2; ops = ops[2:] {
			v := float64(ops[1] & 3)
			if ops[1]&0x80 != 0 {
				v = float64(ops[1]&0x7f) / 7
			}
			c.step(int(ops[0])%n, v, int(ops[1]>>2&3)%numOps)
		}
		c.reset()
	})
}
