// Package alloc implements the constrained resource allocation step of the
// paper's two-step scheduling approach (§4): deciding how many processors
// each task of a PTG receives, under a resource constraint β that bounds
// the fraction of the platform's total processing power the PTG may use.
//
// Following HCPA, allocation happens on a homogeneous *reference cluster*
// (platform.Reference): every task is allocated a number of reference
// processors; at mapping time the reference allocation is translated into a
// concrete allocation of equivalent power on the chosen cluster.
//
// Two procedures are provided, both from the authors' earlier work recalled
// in §4. Starting from one processor per task, each iteration gives one
// more processor to the critical-path task that benefits most; they differ
// in how a violation of β is detected:
//
//   - SCRAP: global test — the total task area (time × power) divided by
//     the critical path length must not exceed β times the platform power.
//   - SCRAP-MAX: per-precedence-level test — the summed power of the
//     allocations within any precedence level must not exceed β times the
//     platform power, so that concurrent ready tasks of one level can all
//     run inside the PTG's share.
//
// Concurrency: the package is stateless, but Compute works in the level
// tracker and cached analyses of the dag.Graph it is given, so concurrent
// calls are safe only on distinct graphs. A Traces store belongs to one
// goroutine.
package alloc

import (
	"fmt"
	"math"

	"ptgsched/internal/cost"
	"ptgsched/internal/dag"
	"ptgsched/internal/platform"
)

// Procedure selects the constraint-violation test.
type Procedure int

const (
	// SCRAP applies the global area test.
	SCRAP Procedure = iota
	// SCRAPMAX applies the per-precedence-level power test. The paper's
	// evaluation uses only SCRAP-MAX (§4, last paragraph).
	SCRAPMAX
)

// String implements fmt.Stringer.
func (p Procedure) String() string {
	switch p {
	case SCRAP:
		return "SCRAP"
	case SCRAPMAX:
		return "SCRAP-MAX"
	default:
		return fmt.Sprintf("Procedure(%d)", int(p))
	}
}

// Allocation is the result of the allocation step: a number of reference
// processors per task (indexed by task ID).
type Allocation struct {
	Graph *dag.Graph
	Ref   platform.Reference
	Beta  float64
	Procs []int
}

// TimeOf returns the estimated execution time of t on its reference
// allocation.
func (a *Allocation) TimeOf(t *dag.Task) float64 {
	return cost.TaskTime(t, a.Ref.Speed, a.Procs[t.ID])
}

// PowerOf returns the reference processing power consumed by t's
// allocation, in GFlop/s.
func (a *Allocation) PowerOf(t *dag.Task) float64 {
	return float64(a.Procs[t.ID]) * a.Ref.Speed
}

// CriticalPathLength returns the critical path length of the graph under
// the current allocation, ignoring communication (allocation, like CPA,
// reasons on computation only; the mapper accounts for redistribution).
func (a *Allocation) CriticalPathLength() float64 {
	return a.Graph.CriticalPathLength(a.TimeOf, dag.ZeroComm)
}

// TotalArea returns the summed area (execution time × consumed power) of
// all tasks under the current allocation, in GFlop.
func (a *Allocation) TotalArea() float64 {
	area := 0.0
	for _, t := range a.Graph.Tasks {
		area += float64(a.TimeOf(t) * a.PowerOf(t)) // the conversion bars a fused multiply-add
	}
	return area
}

// LevelPowers returns, per precedence level, the summed power of the
// allocations of the level's tasks, in GFlop/s.
func (a *Allocation) LevelPowers() []float64 {
	sets := a.Graph.LevelSets()
	powers := make([]float64, len(sets))
	for l, set := range sets {
		powers[l] = a.levelPower(set)
	}
	return powers
}

// levelPower sums the power of the allocations of one precedence level.
func (a *Allocation) levelPower(set []*dag.Task) float64 {
	sum := 0.0
	for _, t := range set {
		sum += a.PowerOf(t)
	}
	return sum
}

// violates reports whether the allocation breaks the β constraint under the
// given procedure. The minimal allocation (one processor per task) is never
// reported as violating: a task cannot use less than one processor.
func (a *Allocation) violates(proc Procedure) bool {
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
		cp := a.CriticalPathLength()
		if cp <= 0 {
			return false
		}
		return a.TotalArea()/cp > budget*(1+tol)
	case SCRAPMAX:
		for _, p := range a.LevelPowers() {
			if p > budget*(1+tol) {
				return true
			}
		}
		return false
	default:
		panic(fmt.Sprintf("alloc: unknown procedure %d", int(proc)))
	}
}

// Respected reports whether the final allocation satisfies its constraint
// (it may not when β is so small that even one processor per task exceeds
// the budget; the paper reports 99% respect across its scenarios).
func (a *Allocation) Respected(proc Procedure) bool { return !a.violates(proc) }

// Compute runs the constrained allocation procedure on g for a platform
// described by ref, under resource constraint beta ∈ (0, 1].
//
// Both procedures share one incremental growth loop. A step widens one
// task, so exactly one task time changes: each task's time at its current
// width lives in g's level tracker, its time at the next width and the gain
// between the two in a tracker-owned buffer, and the tracker brings bottom
// levels up to date before the grown task in topological order and top
// levels after it (dag.Levels). SCRAP-MAX tests a step by re-summing the
// grown task's precedence level — no other level moved, and none is over
// budget once the minimal allocation has been checked — so a rejected step
// touches no level value at all and an accepted one is settled in one call;
// SCRAP tests it on the tentatively updated bottom levels and withdraws
// them on rejection. Every quantity compared is produced by the expression
// the full recomputation would use, in the same summation order, so the
// result is bit-identical to recomputing everything at every step (the
// oracle in oracle_test.go).
//
// Compute is that loop on an empty trace in a store it throws away; callers
// that allocate one graph again and again keep a Traces store.
func Compute(g *dag.Graph, ref platform.Reference, beta float64, proc Procedure) *Allocation {
	var s Traces
	// No limit exceeds +Inf, so nothing is recorded either.
	return s.grow(g, ref, beta, proc, &trace{limit: math.Inf(1)})
}

// grow is the growth loop, started from what tr holds of an earlier run on
// the same (graph, reference, procedure) — see trace.
func (s *Traces) grow(g *dag.Graph, ref platform.Reference, beta float64, proc Procedure, tr *trace) *Allocation {
	if beta <= 0 || beta > 1 {
		panic(fmt.Sprintf("alloc: beta %g outside (0,1]", beta))
	}
	if proc != SCRAP && proc != SCRAPMAX {
		panic(fmt.Sprintf("alloc: unknown procedure %d", int(proc)))
	}
	if err := g.Validate(false); err != nil {
		panic(fmt.Sprintf("alloc: invalid graph: %v", err))
	}
	n := len(g.Tasks)
	a := &Allocation{Graph: g, Ref: ref, Beta: beta, Procs: make([]int, n)}
	for i := range a.Procs {
		a.Procs[i] = 1
	}
	const tol = 1e-9
	limit := beta * ref.Power() * (1 + tol)

	var sets [][]*dag.Task
	var levelOf []int
	if proc == SCRAPMAX {
		sets, levelOf = g.LevelSets(), g.PrecedenceLevels()
		for _, set := range sets {
			if a.levelPower(set) > limit {
				// A level is over budget at one processor per task, and
				// growing never lowers a level's power: every step would
				// be rejected. The loop below tests the grown level only,
				// so this run has no steps to compare or to keep: the
				// trace stays as it is.
				return a
			}
		}
	}

	// The steps this run decides like the traced one are not grown again:
	// the accepted ones give the allocation the loop starts from, the
	// rejected ones (below, once gains exist) the tasks it may not pick.
	replayed := tr.shared(limit)
	s.Replayed += replayed
	for i, id := range tr.task[:replayed] {
		if !(tr.q[i] > limit) {
			a.Procs[id]++
		}
	}
	// The steps grown from here on replace the rest of the trace when this
	// run's limit is the largest the trace has seen; they are collected in
	// the store's buffer until the run ends.
	record, rec := limit > tr.limit, &s.rec
	rec.task, rec.q = rec.task[:0], rec.q[:0]

	lv := g.Levels(a.TimeOf)
	// next[id] is task id's time with one more processor, gain[id] the
	// time that processor saves; a task that may not grow any more — at
	// the platform size, or its last tentative growth broke the constraint
	// — has gain 0, which the selection below never picks.
	aux := lv.Aux(2 * n)
	next, gain := aux[:n], aux[n:]
	widen := func(id int) {
		gain[id] = 0
		if p := a.Procs[id]; p < ref.Procs {
			next[id] = cost.TaskTime(g.Tasks[id], ref.Speed, p+1)
			gain[id] = lv.Time(id) - next[id]
		}
	}
	for id := range gain {
		widen(id)
	}
	for i, id := range tr.task[:replayed] {
		if tr.q[i] > limit {
			gain[id] = 0
		}
	}

	for {
		// The critical-path task that benefits most from one more
		// processor; the lowest ID wins ties.
		best, bestGain := -1, 0.0
		for id, gn := range gain {
			if gn > bestGain && lv.Critical(id) {
				best, bestGain = id, gn
			}
		}
		if best < 0 {
			// No critical-path task can grow: either all saturated or no
			// task gains from one more processor (alpha = 1).
			if record {
				tr.limit = limit
				tr.task = append(tr.task[:replayed], rec.task...)
				tr.q = append(tr.q[:replayed], rec.q...)
			}
			return a
		}
		s.Grown++
		a.Procs[best]++
		// q is what the step's test compares with the limit; where there
		// is nothing to test it stays below every limit.
		q := math.Inf(-1)
		switch proc {
		case SCRAPMAX:
			// Only the grown task's level moved, and a step that passes is
			// kept: nothing to test on the new levels, nothing to undo.
			if q = a.levelPower(sets[levelOf[best]]); !(q > limit) {
				lv.Update(best, next[best])
			}
		case SCRAP:
			// Total area over critical path length, both with the grown
			// task's new time.
			if cp := lv.Set(best, next[best]); cp > 0 {
				area := 0.0
				for id, p := range a.Procs {
					// The conversion keeps the product from fusing into the
					// sum on architectures with a multiply-add, where one
					// ulp could flip the test below.
					area += float64(lv.Time(id) * (float64(p) * ref.Speed))
				}
				q = area / cp
			}
			if q > limit {
				lv.Revert()
			} else {
				lv.Commit()
			}
		}
		if record {
			rec.task, rec.q = append(rec.task, int32(best)), append(rec.q, q)
		}
		if q > limit {
			a.Procs[best]--
			gain[best] = 0
			continue
		}
		widen(best)
	}
}

// TranslateBatch translates a whole reference allocation vector (indexed by
// task ID) into per-cluster concrete widths in one pass: the result is
// indexed [cluster][taskID]. The mapper evaluates every (task, cluster)
// candidate, so batching the translation hoists the rounding and clamping
// out of its innermost loop while producing exactly Translate's values.
func TranslateBatch(procs []int, ref platform.Reference, clusters []*platform.Cluster) [][]int {
	out := make([][]int, len(clusters))
	flat := make([]int, len(clusters)*len(procs))
	for k, c := range clusters {
		row := flat[k*len(procs) : (k+1)*len(procs)]
		for i, p := range procs {
			row[i] = Translate(p, ref, c)
		}
		out[k] = row
	}
	return out
}

// Translate converts a reference allocation of p processors into an
// allocation on cluster c of (approximately) equivalent processing power,
// as HCPA does on heterogeneous platforms: round(p·s_ref/s_c), clamped to
// [1, c.Procs].
func Translate(p int, ref platform.Reference, c *platform.Cluster) int {
	return TranslateTo(p, ref, c.Procs, c.Speed)
}

// TranslateTo is Translate against an explicit capacity and speed instead
// of a cluster's static ones. The online scheduler uses it under dynamic
// scenarios, where a cluster's effective speed can differ from its
// configured speed; with procs = c.Procs and speed = c.Speed it computes
// exactly Translate's value.
func TranslateTo(p int, ref platform.Reference, procs int, speed float64) int {
	if p < 1 {
		panic(fmt.Sprintf("alloc: translating allocation of %d processors", p))
	}
	q := int(math.Round(float64(p) * ref.Speed / speed))
	if q < 1 {
		q = 1
	}
	if q > procs {
		q = procs
	}
	return q
}
