package alloc

import (
	"ptgsched/internal/dag"
	"ptgsched/internal/platform"
)

// trace is the step list of one run of the growth loop on one (graph,
// reference, procedure): for every step the task it tried to widen and the
// quantity its test compared with the limit — SCRAP-MAX: the grown level's
// re-summed power; SCRAP: total area over critical path length, -Inf where
// the path length is 0 and nothing is tested. A step was rejected when its
// quantity exceeds the run's limit.
//
// Which task a step tries depends on the allocation reached and the tasks
// rejected so far only; the limit enters through the test alone. Two runs
// therefore make the same steps, with the same quantities, up to the first
// one their limits decide differently, and the later run may start from the
// state those shared steps leave instead of growing them again. That is
// exact, not a heuristic: a recorded quantity was produced by the loop's own
// expression, in its summation order, from the state the later run would be
// in, so comparing it with the new limit is the test the later run would
// make.
//
// Of the runs it has seen a trace keeps the one with the largest limit: a
// smaller limit rejects whatever a larger one rejects, so that run shares
// the longest prefix with any other.
//
// A trace also keeps the allocation every run returned, one per β: a run
// under a β already seen on the key is answered with that allocation
// instead of being replayed. The allocations are the trace's own storage:
// past len(done), done's array holds those of the key the trace served
// before it was forgotten, which the next runs overwrite.
type trace struct {
	limit float64
	steps
	done []*Allocation
	// gen is the graph's generation (dag.Graph.Generation) when the steps
	// and the allocations were made; the store drops both for a graph that
	// has changed since — grown, or reset and regenerated in place. A trace
	// no graph generation has been recorded for yet is stale.
	gen   uint64
	stale bool
}

// steps are growth steps in two parallel slices.
type steps struct {
	task []int32
	q    []float64
}

// shared returns how many of the trace's leading steps a run under limit
// decides the way the recorded run did.
func (tr *trace) shared(limit float64) int {
	for i, q := range tr.q {
		if (q > limit) != (q > tr.limit) {
			return i
		}
	}
	return len(tr.q)
}

// Traces is a store of growth-loop traces, one per (graph, reference
// cluster, procedure), through which a caller that allocates the same graphs
// repeatedly — a campaign point under its strategies, the online scheduler
// at every rebalance — computes them: Compute returns what the package-level
// Compute returns, bit for bit, and regrows only the steps no earlier call
// on the same key already decided alike. A β already computed on the key
// returns the earlier *Allocation itself: the β = 1 dedicated run is the
// selfish strategy's allocation, strategies often resolve a graph to the
// same β, and an online rebalance often leaves a share where it was.
// The allocations a store returns are its own, valid until Forget, which
// recycles their storage; callers must not modify them. A graph may be
// traced under several references at once (the online reference moves with
// cluster failures and comes back with recoveries).
//
// The zero value is an empty store. A store belongs to one goroutine, like
// the graphs it traces. It detects a graph changed through AddTask, AddEdge
// or Reset since its trace was recorded — a pooled graph regenerated in
// place is a new graph to it — but not task costs edited in place: those
// must stay as they are until Forget.
type Traces struct {
	byKey map[traceKey]*trace
	// free holds the traces of forgotten keys, whose step storage the next
	// keys record into.
	free []*trace
	// rec is where a run records its steps; the trace takes them when the
	// run ends, in one piece of the size they need.
	rec steps

	// Replayed and Grown count, over every Compute since the store was
	// created, the growth steps taken over from a trace and the steps run
	// through the loop; Repeated counts the calls answered with an earlier
	// allocation, which take and grow no step.
	Replayed, Grown, Repeated int
}

type traceKey struct {
	g    *dag.Graph
	ref  platform.Reference
	proc Procedure
}

// Compute is the package-level Compute, started from the store's trace of
// (g, ref, proc).
func (s *Traces) Compute(g *dag.Graph, ref platform.Reference, beta float64, proc Procedure) *Allocation {
	key := traceKey{g, ref, proc}
	tr := s.byKey[key]
	if tr == nil {
		if n := len(s.free); n > 0 {
			tr, s.free = s.free[n-1], s.free[:n-1]
		} else {
			tr = &trace{stale: true}
		}
		if s.byKey == nil {
			s.byKey = make(map[traceKey]*trace)
		}
		s.byKey[key] = tr
	}
	if tr.stale || tr.gen != g.Generation() {
		if !tr.stale {
			// The graph changed under a live key, whose allocations the
			// caller may still hold: they are dropped, not recycled.
			clear(tr.done[:cap(tr.done)])
		}
		*tr = trace{steps: steps{tr.task[:0], tr.q[:0]}, done: tr.done[:0], gen: g.Generation()}
	}
	for _, a := range tr.done {
		if a.Beta == beta {
			s.Repeated++
			return a
		}
	}
	var a *Allocation
	if n := len(tr.done); n < cap(tr.done) {
		a = tr.done[:n+1][n]
	}
	if a == nil {
		a = new(Allocation)
	}
	a = s.grow(g, ref, beta, proc, tr, a)
	tr.done = append(tr.done, a)
	return a
}

// Forget drops every trace and invalidates the allocations kept with it,
// releasing the graphs, and keeps the storage of both for the traces to
// come.
func (s *Traces) Forget() {
	for _, tr := range s.byKey {
		tr.stale = true
		for _, a := range tr.done {
			a.Graph = nil
		}
		s.free = append(s.free, tr)
	}
	clear(s.byKey)
}
