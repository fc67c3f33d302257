// Package core assembles the paper's complete concurrent PTG scheduler: a
// resource-constraint determination strategy (§6) feeding the constrained
// allocation procedure SCRAP-MAX (§4), whose per-application allocations
// are then mapped together by the concurrent ready-task list mapper (§5).
//
// It also provides the dedicated-platform scheduling used to measure
// M_own(a), the makespan an application achieves with the resources on its
// own — the numerator of the slowdown metric (Eq. 3).
//
// Concurrency: a Scheduler is a small immutable configuration over an
// immutable Platform; Schedule keeps all mutable state in per-call values
// but drives the cached analyses of its input graphs. Distinct Scheduler
// values (or one value with distinct graph batches) may therefore run
// concurrently — the contract the service and experiment layers build on.
// One batch's graphs must not be scheduled from two goroutines at once.
package core

import (
	"fmt"

	"ptgsched/internal/alloc"
	"ptgsched/internal/dag"
	"ptgsched/internal/mapping"
	"ptgsched/internal/metrics"
	"ptgsched/internal/platform"
	"ptgsched/internal/simexec"
	"ptgsched/internal/strategy"
)

// Scheduler schedules batches of PTGs on one multi-cluster platform. The
// zero value of Options selects the paper's configuration: SCRAP-MAX
// allocation, ready-task ordering, allocation packing on.
type Scheduler struct {
	Platform *platform.Platform
	// Procedure is the allocation procedure (default SCRAPMAX; the paper
	// only evaluates SCRAP-MAX, SCRAP is kept for ablation).
	Procedure alloc.Procedure
	// MapOptions tunes the mapping step.
	MapOptions mapping.Options
}

// New returns a scheduler for pf in the paper's configuration.
func New(pf *platform.Platform) *Scheduler {
	return &Scheduler{Platform: pf, Procedure: alloc.SCRAPMAX}
}

// Result is the outcome of scheduling one batch of PTGs: the β constraints
// chosen by the strategy, the per-application allocations, the mapped
// schedule, and the simulated execution (per-application makespans under
// actual network contention).
type Result struct {
	Strategy    strategy.Strategy
	Betas       []float64
	Allocations []*alloc.Allocation
	Schedule    *mapping.Schedule
	Exec        *simexec.Result
}

// Makespan returns the simulated completion time of application i.
func (r *Result) Makespan(i int) float64 { return r.Exec.AppMakespans[i] }

// GlobalMakespan returns the simulated completion time of the whole batch.
func (r *Result) GlobalMakespan() float64 { return r.Exec.Makespan }

// Schedule runs the full pipeline on a batch of concurrently-submitted
// PTGs under the given constraint-determination strategy.
func (s *Scheduler) Schedule(graphs []*dag.Graph, strat strategy.Strategy) *Result {
	return s.ScheduleWith(NewScratch(), graphs, strat)
}

// Scratch amortizes a scheduler's per-call state — most importantly the
// simulated executor's engine, flow net and buffers — across the many
// batches one worker schedules. A Scratch must be confined to one
// goroutine; the Result ScheduleWith returns (and the Evaluation slices
// EvaluateWith fills) are scratch-owned and overwritten by the next call
// on the same Scratch, so callers consume them before scheduling again.
//
// A Scratch also remembers the allocations it computed, so that one batch
// of graphs scheduled several times — alone for M_own, then under each
// strategy — computes each distinct (graph, reference cluster, β,
// procedure) once: the β = 1 dedicated run is the selfish strategy's
// allocation, and strategies often resolve a graph to the same β. What it
// does compute goes through a store of allocation traces (alloc.Traces), so
// a graph's run under one β starts from the growth steps its runs under
// other β already made. Callers moving on to other graphs call
// ForgetAllocations; graphs' task costs must not be edited while their
// allocations and traces are remembered (appending tasks or edges is
// detected). Release ends a scratch's use for one piece of work altogether.
type Scratch struct {
	exec   *simexec.Scratch
	apps   []*alloc.Allocation
	alone  [1]*dag.Graph
	slow   []float64
	res    Result
	memo   []remembered
	traces alloc.Traces
}

// remembered is one allocation with what identifies its computation beyond
// the Graph, Ref and Beta it records itself: the procedure, and the graph's
// edge count (with len(Procs), the size the graph had).
type remembered struct {
	a     *alloc.Allocation
	proc  alloc.Procedure
	edges int
}

// NewScratch returns an empty scratch ready for ScheduleWith.
func NewScratch() *Scratch {
	return &Scratch{exec: simexec.NewScratch()}
}

// ForgetAllocations drops the remembered allocations and their traces,
// releasing their graphs. Call it between batches of different graphs.
func (sc *Scratch) ForgetAllocations() {
	clear(sc.memo)
	sc.memo = sc.memo[:0]
	sc.traces.Forget()
}

// Release drops everything the scratch still references of the batches it
// scheduled — the last Result, the allocation memo and traces, the
// executor's schedule — keeping only buffers, so a scratch parked between
// unrelated pieces of work (a service worker between requests) pins none of
// the previous one's graphs. Results the scratch returned are invalid after
// it.
func (sc *Scratch) Release() {
	sc.ForgetAllocations()
	clear(sc.apps[:cap(sc.apps)])
	sc.alone[0] = nil
	sc.res = Result{}
	sc.exec.Release()
}

// allocation returns alloc.Compute(g, ref, beta, proc), computed at most
// once per remembered (graph, reference, β, procedure) and then from the
// trace of (graph, reference, procedure).
func (sc *Scratch) allocation(g *dag.Graph, ref platform.Reference, beta float64, proc alloc.Procedure) *alloc.Allocation {
	for _, m := range sc.memo {
		if a := m.a; a.Graph == g && a.Beta == beta && a.Ref == ref && m.proc == proc &&
			len(a.Procs) == len(g.Tasks) && m.edges == len(g.Edges) {
			return a
		}
	}
	a := sc.traces.Compute(g, ref, beta, proc)
	sc.memo = append(sc.memo, remembered{a, proc, len(g.Edges)})
	return a
}

// ScheduleWith is Schedule on a reusable worker-owned scratch. The
// returned Result belongs to the scratch: it is valid until the next
// ScheduleWith or ScheduleAloneWith call on sc. The computation is
// bit-identical to Schedule.
func (s *Scheduler) ScheduleWith(sc *Scratch, graphs []*dag.Graph, strat strategy.Strategy) *Result {
	if len(graphs) == 0 {
		panic("core: empty batch")
	}
	ref := s.Platform.ReferenceCluster()
	betas := strat.Betas(graphs, ref)
	if cap(sc.apps) < len(graphs) {
		sc.apps = make([]*alloc.Allocation, len(graphs))
	}
	apps := sc.apps[:len(graphs)]
	for i, g := range graphs {
		apps[i] = sc.allocation(g, ref, betas[i], s.Procedure)
	}
	sched := mapping.Map(s.Platform, apps, s.MapOptions)
	sc.res = Result{
		Strategy:    strat,
		Betas:       betas,
		Allocations: apps,
		Schedule:    sched,
		Exec:        sc.exec.Execute(sched),
	}
	return &sc.res
}

// ScheduleAlone schedules a single PTG with the whole platform to itself
// (β = 1), the configuration M_own is measured in. The returned makespan is
// the simulated one.
func (s *Scheduler) ScheduleAlone(g *dag.Graph) float64 {
	return s.Schedule([]*dag.Graph{g}, strategy.S()).Makespan(0)
}

// ScheduleAloneWith is ScheduleAlone on a reusable scratch.
func (s *Scheduler) ScheduleAloneWith(sc *Scratch, g *dag.Graph) float64 {
	sc.alone[0] = g
	return s.ScheduleWith(sc, sc.alone[:], strategy.S()).Makespan(0)
}

// Evaluation bundles the paper's metrics for one scheduled batch.
type Evaluation struct {
	Slowdowns  []float64
	Unfairness float64
	// Makespan is the batch's global simulated completion time.
	Makespan float64
}

// Evaluate computes the slowdown of each application (against the provided
// M_own values) and the batch unfairness.
func (r *Result) Evaluate(own []float64) Evaluation {
	return r.evaluate(own, make([]float64, len(own)))
}

// EvaluateWith is Evaluate with the Slowdowns slice drawn from the
// scratch: the returned Evaluation is valid until the next EvaluateWith
// on sc. Callers that keep only the scalar fields (unfairness, makespan)
// pay no per-call allocation.
func (r *Result) EvaluateWith(sc *Scratch, own []float64) Evaluation {
	if cap(sc.slow) < len(own) {
		sc.slow = make([]float64, len(own))
	}
	return r.evaluate(own, sc.slow[:len(own)])
}

func (r *Result) evaluate(own, sl []float64) Evaluation {
	if len(own) != len(r.Exec.AppMakespans) {
		panic(fmt.Sprintf("core: %d own makespans for %d applications",
			len(own), len(r.Exec.AppMakespans)))
	}
	for i := range sl {
		sl[i] = metrics.Slowdown(own[i], r.Exec.AppMakespans[i])
	}
	return Evaluation{
		Slowdowns:  sl,
		Unfairness: metrics.Unfairness(sl),
		Makespan:   r.Exec.Makespan,
	}
}
