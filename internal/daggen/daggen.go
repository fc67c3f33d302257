// Package daggen generates the three families of parallel task graphs used
// in the paper's evaluation (§2): synthetic random PTGs controlled by
// width/regularity/density/jump parameters, FFT PTGs, and Strassen
// matrix-multiplication PTGs.
//
// All generators are deterministic given a *rand.Rand source.
//
// Concurrency: generators are pure given their *rand.Rand (which is not
// safe for concurrent use); each concurrent caller must bring its own
// source, as the experiment and service layers do.
package daggen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"ptgsched/internal/cost"
	"ptgsched/internal/dag"
)

// ComplexityMode selects how per-task computational complexity classes are
// drawn. The paper considers four scenarios: all tasks of one of the three
// classes, or each task drawing its class at random (§2).
type ComplexityMode int

const (
	// AllLinear gives every task the a·d class.
	AllLinear ComplexityMode = iota
	// AllNLogN gives every task the a·d·log d class.
	AllNLogN
	// AllMatrix gives every task the d^3/2 class.
	AllMatrix
	// Mixed draws each task's class uniformly among the three.
	Mixed
)

// String implements fmt.Stringer.
func (m ComplexityMode) String() string {
	switch m {
	case AllLinear:
		return "all-linear"
	case AllNLogN:
		return "all-nlogn"
	case AllMatrix:
		return "all-matrix"
	case Mixed:
		return "mixed"
	default:
		return fmt.Sprintf("ComplexityMode(%d)", int(m))
	}
}

// ComplexityByName parses a complexity-scenario name ("all-linear",
// "all-nlogn", "all-matrix" or "mixed", case insensitive). It is the shared
// resolver behind the scenario spec format.
func ComplexityByName(name string) (ComplexityMode, error) {
	switch strings.ToLower(name) {
	case "all-linear":
		return AllLinear, nil
	case "all-nlogn":
		return AllNLogN, nil
	case "all-matrix":
		return AllMatrix, nil
	case "mixed":
		return Mixed, nil
	default:
		return 0, fmt.Errorf("daggen: unknown complexity mode %q (want all-linear, all-nlogn, all-matrix or mixed)", name)
	}
}

// RandomConfig parameterizes the synthetic PTG generator with the four
// shape parameters of §2 plus the task count and complexity scenario.
type RandomConfig struct {
	// Tasks is the number of data-parallel tasks (10, 20 or 50 in the
	// paper).
	Tasks int
	// Width in (0,1] controls the maximum parallelism: the mean number of
	// tasks per precedence level is Tasks^Width, so small values yield
	// chain-like graphs and large values fork-join-like graphs. Paper
	// values: 0.2, 0.5, 0.8.
	Width float64
	// Regularity in [0,1] controls the uniformity of level sizes: 1 makes
	// all levels the same size, 0 lets them vary by ±100%. Paper values:
	// 0.2, 0.8.
	Regularity float64
	// Density in [0,1] controls the number of edges between consecutive
	// levels. Paper values: 0.2, 0.8.
	Density float64
	// Jump is the maximum number of levels an edge may skip over: 1 means
	// edges only connect consecutive levels. Paper values: 1, 2, 4.
	Jump int
	// Complexity selects the per-task complexity scenario.
	Complexity ComplexityMode
}

// Validate reports whether the configuration is usable.
func (c RandomConfig) Validate() error {
	switch {
	case c.Tasks < 3:
		return fmt.Errorf("daggen: need at least 3 tasks, got %d", c.Tasks)
	case c.Width <= 0 || c.Width > 1:
		return fmt.Errorf("daggen: width %g outside (0,1]", c.Width)
	case c.Regularity < 0 || c.Regularity > 1:
		return fmt.Errorf("daggen: regularity %g outside [0,1]", c.Regularity)
	case c.Density < 0 || c.Density > 1:
		return fmt.Errorf("daggen: density %g outside [0,1]", c.Density)
	case c.Jump < 1:
		return fmt.Errorf("daggen: jump %d < 1", c.Jump)
	}
	return nil
}

// drawTaskParams fills in the cost parameters of one task: dataset size d
// uniform in [4M, 121M], iteration coefficient a uniform in [2^6, 2^9],
// Amdahl fraction uniform in [0, 0.25] (§2).
func drawTaskParams(mode ComplexityMode, r *rand.Rand) (dataElems, seqGFlop, alpha float64) {
	d := cost.MinDataElems + float64(r.Float64()*(cost.MaxDataElems-cost.MinDataElems))
	a := float64(cost.MinCoeff + r.Intn(cost.MaxCoeff-cost.MinCoeff+1))
	var class cost.Complexity
	switch mode {
	case AllLinear:
		class = cost.Linear
	case AllNLogN:
		class = cost.NLogN
	case AllMatrix:
		class = cost.Matrix
	case Mixed:
		class = cost.Complexity(r.Intn(3))
	default:
		panic(fmt.Sprintf("daggen: unknown complexity mode %d", int(mode)))
	}
	return d, cost.GFlop(cost.Flops(class, a, d)), r.Float64() * cost.AlphaMax
}

// Random generates a synthetic PTG per the paper's model. The graph has a
// single entry and a single exit task (first and last levels have size 1)
// and every intermediate task has at least one predecessor in the previous
// level and at least one successor, so precedence levels match the intended
// level structure.
func Random(cfg RandomConfig, r *rand.Rand) *dag.Graph {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := dag.New(fmt.Sprintf("random-n%d-w%.1f-r%.1f-d%.1f-j%d",
		cfg.Tasks, cfg.Width, cfg.Regularity, cfg.Density, cfg.Jump))

	// Level sizes: entry level of 1, then levels of ~Tasks^Width tasks
	// jittered by (1-regularity), then an exit level of 1.
	perfect := math.Pow(float64(cfg.Tasks), cfg.Width)
	sizes := []int{1}
	remaining := cfg.Tasks - 2
	for remaining > 0 {
		jitter := 1 + float64((1-cfg.Regularity)*(float64(2*r.Float64())-1))
		s := int(math.Round(perfect * jitter))
		if s < 1 {
			s = 1
		}
		if s > remaining {
			s = remaining
		}
		sizes = append(sizes, s)
		remaining -= s
	}
	sizes = append(sizes, 1)

	// Create tasks level by level.
	levels := make([][]*dag.Task, len(sizes))
	id := 0
	for l, s := range sizes {
		for i := 0; i < s; i++ {
			d, w, alpha := drawTaskParams(cfg.Complexity, r)
			levels[l] = append(levels[l], g.AddTask(fmt.Sprintf("t%d", id), d, w, alpha))
			id++
		}
	}

	// Wire parents. Every non-entry task gets one forced parent in the
	// previous level (preserving the level structure), then extra parents
	// according to density, possibly jumping up to cfg.Jump levels back.
	for l := 1; l < len(levels); l++ {
		for _, t := range levels[l] {
			prev := levels[l-1]
			first := prev[r.Intn(len(prev))]
			g.MustAddEdge(first, t, cost.EdgeBytes(first.DataElems))

			extra := int(r.Float64() * cfg.Density * float64(len(prev)))
			for k := 0; k < extra; k++ {
				j := 1 + r.Intn(min(cfg.Jump, l))
				src := levels[l-j]
				cand := src[r.Intn(len(src))]
				if cand == t || hasEdge(cand, t) {
					continue
				}
				g.MustAddEdge(cand, t, cost.EdgeBytes(cand.DataElems))
			}
		}
	}

	// Every non-exit task must reach the exit: childless tasks get an edge
	// to a random task in the next level.
	for l := 0; l < len(levels)-1; l++ {
		for _, t := range levels[l] {
			if len(t.Out()) == 0 {
				next := levels[l+1]
				dst := next[r.Intn(len(next))]
				g.MustAddEdge(t, dst, cost.EdgeBytes(t.DataElems))
			}
		}
	}

	if err := g.Validate(true); err != nil {
		panic(fmt.Sprintf("daggen: generated invalid graph: %v", err))
	}
	return g
}

func hasEdge(from, to *dag.Task) bool {
	for _, e := range from.Out() {
		if e.To == to {
			return true
		}
	}
	return false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
