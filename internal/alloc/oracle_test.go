package alloc

import (
	"fmt"

	"ptgsched/internal/cost"
	"ptgsched/internal/dag"
	"ptgsched/internal/platform"
)

// oracleCompute is the growth loop Compute ran before it went incremental,
// kept as the differential oracle (the pattern of mapping's seed mapper and
// the store's QueryFullScan): every step recomputes every task's Amdahl
// time and full bottom- and top-level passes through TimeFunc closures, and
// tests the constraint on the whole graph. The loop, the selection rule and
// the violation test are the old code line for line; the graph analyses it
// called on dag.Graph (OnCriticalPath, bottom-/top-level passes) are frozen
// below over dag's exported structure, so later changes to package dag
// cannot move the oracle. Compute must return identical Procs vectors.
func oracleCompute(g *dag.Graph, ref platform.Reference, beta float64, proc Procedure) *Allocation {
	if beta <= 0 || beta > 1 {
		panic(fmt.Sprintf("alloc: beta %g outside (0,1]", beta))
	}
	if err := g.Validate(false); err != nil {
		panic(fmt.Sprintf("alloc: invalid graph: %v", err))
	}
	a := &Allocation{Graph: g, Ref: ref, Beta: beta, Procs: make([]int, len(g.Tasks))}
	for i := range a.Procs {
		a.Procs[i] = 1
	}

	// saturated marks tasks that can no longer grow: either at the
	// platform size or whose last tentative growth violated the
	// constraint.
	saturated := make([]bool, len(g.Tasks))

	for {
		marks := oracleOnCriticalPath(g, a.TimeOf, dag.ZeroComm)
		best := -1
		bestGain := 0.0
		for _, t := range g.Tasks {
			if !marks[t.ID] || saturated[t.ID] || a.Procs[t.ID] >= ref.Procs {
				continue
			}
			gain := cost.MarginalGain(t, ref.Speed, a.Procs[t.ID])
			if gain > bestGain {
				bestGain = gain
				best = t.ID
			}
		}
		if best < 0 {
			// No critical-path task can grow: either all saturated or no
			// task gains from one more processor (alpha = 1).
			return a
		}
		a.Procs[best]++
		if oracleViolates(a, proc) {
			a.Procs[best]--
			saturated[best] = true
			continue
		}
	}
}

func oracleViolates(a *Allocation, proc Procedure) bool {
	minimal := true
	for _, p := range a.Procs {
		if p > 1 {
			minimal = false
			break
		}
	}
	if minimal {
		return false
	}
	budget := a.Beta * a.Ref.Power()
	const tol = 1e-9
	switch proc {
	case SCRAP:
		bl := make([]float64, len(a.Graph.Tasks))
		oracleBottomLevelsInto(a.Graph, bl, a.TimeOf, dag.ZeroComm)
		cp := oracleMaxEntryLevel(a.Graph, bl)
		if cp <= 0 {
			return false
		}
		area := 0.0
		for _, t := range a.Graph.Tasks {
			area += a.TimeOf(t) * a.PowerOf(t)
		}
		return area/cp > budget*(1+tol)
	case SCRAPMAX:
		for _, set := range a.Graph.LevelSets() {
			sum := 0.0
			for _, t := range set {
				sum += a.PowerOf(t)
			}
			if sum > budget*(1+tol) {
				return true
			}
		}
		return false
	default:
		panic(fmt.Sprintf("alloc: unknown procedure %d", int(proc)))
	}
}

func oracleBottomLevelsInto(g *dag.Graph, bl []float64, timeOf dag.TimeFunc, commOf dag.CommFunc) {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		best := 0.0
		for _, e := range t.Out() {
			v := commOf(e) + bl[e.To.ID]
			if v > best {
				best = v
			}
		}
		bl[t.ID] = timeOf(t) + best
	}
}

func oracleTopLevelsInto(g *dag.Graph, tl []float64, timeOf dag.TimeFunc, commOf dag.CommFunc) {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	for _, t := range order {
		best := 0.0
		for _, e := range t.In() {
			v := tl[e.From.ID] + timeOf(e.From) + commOf(e)
			if v > best {
				best = v
			}
		}
		tl[t.ID] = best
	}
}

func oracleMaxEntryLevel(g *dag.Graph, bl []float64) float64 {
	best := 0.0
	for _, t := range g.Entries() {
		if bl[t.ID] > best {
			best = bl[t.ID]
		}
	}
	return best
}

func oracleOnCriticalPath(g *dag.Graph, timeOf dag.TimeFunc, commOf dag.CommFunc) []bool {
	bl, tl := make([]float64, len(g.Tasks)), make([]float64, len(g.Tasks))
	oracleBottomLevelsInto(g, bl, timeOf, commOf)
	oracleTopLevelsInto(g, tl, timeOf, commOf)
	cp := oracleMaxEntryLevel(g, bl)
	const relTol = 1e-9
	marks := make([]bool, len(g.Tasks))
	for _, t := range g.Tasks {
		marks[t.ID] = tl[t.ID]+bl[t.ID] >= cp*(1-relTol)
	}
	return marks
}
