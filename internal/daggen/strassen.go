package daggen

import (
	"fmt"
	"math/rand"

	"ptgsched/internal/cost"
	"ptgsched/internal/dag"
)

// Strassen generates the 25-task parallel task graph of one level of
// Strassen's matrix multiplication, the paper's second real application
// (§2). All Strassen PTGs share the same shape — 5 precedence levels,
// maximal width 10 — and differ only in task costs, which the paper
// exploits to show that width-based strategies degenerate to ES on them.
//
// Structure (C = A·B on √d×√d matrices, quadrant size d/4 elements):
//
//	level 0: split          (1 task, entry)
//	level 1: S1..S10        (10 quadrant additions feeding the products)
//	level 2: P1..P7         (7 recursive products, Strassen's trick)
//	level 3: U1,U2,V1,V2,C12,C21 (6 pairwise combinations)
//	level 4: assemble       (1 task, exit)
//
// with P1=S1·S2, P2=S3·B11, P3=A11·S4, P4=A22·S5, P5=S6·B22, P6=S7·S8,
// P7=S9·S10; C11=(P1+P4)+(P7−P5)=U1+U2, C12=P3+P5, C21=P2+P4,
// C22=(P1−P2)+(P3+P6)=V1+V2. Operand quadrants (A11, B22, ...) reach the
// products through the split task via the S-level: S-tasks that forward a
// raw quadrant are modelled as copies with the same addition cost, keeping
// the graph regular as in the literature.
func Strassen(r *rand.Rand) *dag.Graph {
	g := dag.New("strassen")

	d := cost.MinDataElems + float64(r.Float64()*(cost.MaxDataElems-cost.MinDataElems))
	q := d / 4 // elements per quadrant
	alpha := func() float64 { return r.Float64() * cost.AlphaMax }
	addWork := cost.GFlop(cost.Flops(cost.Linear, 1, q))  // one add pass over a quadrant
	mulWork := cost.GFlop(cost.Flops(cost.Matrix, 0, q))  // (√q)^3 product
	moveWork := cost.GFlop(cost.Flops(cost.Linear, 1, d)) // split/assemble pass over full matrices

	split := g.AddTask("split", d, moveWork, alpha())

	// Level 1: the ten operand tasks.
	s := make([]*dag.Task, 10)
	for i := range s {
		s[i] = g.AddTask(fmt.Sprintf("S%d", i+1), q, addWork, alpha())
		g.MustAddEdge(split, s[i], cost.EdgeBytes(q))
	}

	// Level 2: the seven products. Each consumes two level-1 operands.
	operands := [7][2]int{
		{0, 1}, // P1 = S1·S2
		{2, 1}, // P2 = S3·(B11 via S2-copy lane)
		{3, 4}, // P3 = A11·S4
		{5, 4}, // P4 = A22·S5
		{5, 6}, // P5 = S6·B22
		{6, 7}, // P6 = S7·S8
		{8, 9}, // P7 = S9·S10
	}
	p := make([]*dag.Task, 7)
	for i := range p {
		p[i] = g.AddTask(fmt.Sprintf("P%d", i+1), q, mulWork, alpha())
		a, b := operands[i][0], operands[i][1]
		g.MustAddEdge(s[a], p[i], cost.EdgeBytes(q))
		if b != a {
			g.MustAddEdge(s[b], p[i], cost.EdgeBytes(q))
		}
	}

	// Level 3: six pairwise combinations.
	combos := []struct {
		name string
		a, b int // product indices (0-based)
	}{
		{"U1", 0, 3}, // P1+P4
		{"U2", 6, 4}, // P7−P5
		{"C12", 2, 4},
		{"C21", 1, 3},
		{"V1", 0, 1}, // P1−P2
		{"V2", 2, 5}, // P3+P6
	}
	level3 := make([]*dag.Task, len(combos))
	for i, c := range combos {
		t := g.AddTask(c.name, q, addWork, alpha())
		g.MustAddEdge(p[c.a], t, cost.EdgeBytes(q))
		g.MustAddEdge(p[c.b], t, cost.EdgeBytes(q))
		level3[i] = t
	}

	assemble := g.AddTask("assemble", d, moveWork, alpha())
	for _, t := range level3 {
		g.MustAddEdge(t, assemble, cost.EdgeBytes(q))
	}

	if err := g.Validate(true); err != nil {
		panic(fmt.Sprintf("daggen: invalid Strassen graph: %v", err))
	}
	return g
}

// StrassenTaskCount is the fixed size of a Strassen PTG.
const StrassenTaskCount = 25
