package daggen

import (
	"fmt"
	"math/rand"

	"ptgsched/internal/cost"
	"ptgsched/internal/dag"
)

// FFT generates the parallel task graph of a 2^k-point mixed-parallel FFT,
// the classical test case used by the paper (§2, after [5]): a recursive
// splitting binary tree of depth k followed by k butterfly stages of 2^k
// tasks each. Task counts are 15, 39 and 95 for k = 2, 3, 4, matching the
// paper's FFT sizes (the paper reports 15, 37 and 95; see the daggen tests
// for the off-by-two note on the middle size).
//
// FFT PTGs are regular: every task in a level has the same cost. The root
// operates on d0 elements drawn uniformly in [4M, 121M]; tree level l
// operates on d0/2^l; all butterfly tasks operate on d0/2^k. All tasks use
// the a·d complexity class with one coefficient and one Amdahl fraction
// drawn per graph.
func FFT(k int, r *rand.Rand) *dag.Graph {
	g := new(dag.Graph)
	FFTInto(g, k, r)
	return g
}

// FFTInto is FFT generating into g, which it resets first: the same draws
// from r give the same graph, in storage g already holds.
func FFTInto(g *dag.Graph, k int, r *rand.Rand) {
	if k < 1 || k > 20 {
		panic(fmt.Sprintf("daggen: FFT exponent %d outside [1,20]", k))
	}
	n := 1 << k
	g.Reset(fmt.Sprintf("fft-%dpt", n))

	d0 := cost.MinDataElems + float64(r.Float64()*(cost.MaxDataElems-cost.MinDataElems))
	a := float64(cost.MinCoeff + r.Intn(cost.MaxCoeff-cost.MinCoeff+1))
	alpha := r.Float64() * cost.AlphaMax
	work := func(d float64) float64 { return cost.GFlop(cost.Flops(cost.Linear, a, d)) }

	// Recursive splitting tree: level l has 2^l tasks on d0/2^l elements,
	// task i of level l has ID 2^l−1+i.
	for l := 0; l <= k; l++ {
		d := d0 / float64(int(1)<<l)
		for i := 0; i < 1<<l; i++ {
			t := g.AddTask(fmt.Sprintf("split-%d-%d", l, i), d, work(d), alpha)
			if l > 0 {
				parent := g.Tasks[1<<(l-1)-1+i/2]
				g.MustAddEdge(parent, t, cost.EdgeBytes(d))
			}
		}
	}

	// Butterfly stages: stage s has n tasks on d0/n elements; task i of
	// stage s depends on tasks i and i XOR 2^s of the previous row (the
	// leaves of the tree for s = 0).
	dLeaf := d0 / float64(n)
	prevStart := n - 1
	for s := 0; s < k; s++ {
		start := len(g.Tasks)
		for i := 0; i < n; i++ {
			g.AddTask(fmt.Sprintf("bfly-%d-%d", s, i), dLeaf, work(dLeaf), alpha)
		}
		prev, row := g.Tasks[prevStart:prevStart+n], g.Tasks[start:start+n]
		for i := 0; i < n; i++ {
			g.MustAddEdge(prev[i], row[i], cost.EdgeBytes(dLeaf))
			g.MustAddEdge(prev[i^(1<<s)], row[i], cost.EdgeBytes(dLeaf))
		}
		prevStart = start
	}

	// The last butterfly row is the exit row (n exits). The single-exit
	// assumption of §2 is "without loss of generality"; every analysis in
	// this repository handles multiple exits, so we keep the classical
	// 2n-1 + n·log n task count and validate non-strictly.
	if err := g.Validate(false); err != nil {
		panic(fmt.Sprintf("daggen: invalid FFT graph: %v", err))
	}
}
