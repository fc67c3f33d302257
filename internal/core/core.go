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
	"math/rand"

	"ptgsched/internal/alloc"
	"ptgsched/internal/dag"
	"ptgsched/internal/mapping"
	"ptgsched/internal/metrics"
	"ptgsched/internal/platform"
	"ptgsched/internal/simexec"
	"ptgsched/internal/strategy"
)

// Scheduler schedules batches of PTGs on one multi-cluster platform. It
// always allocates with SCRAP-MAX, the only procedure the paper evaluates;
// the zero MapOptions selects the paper's mapping: ready-task ordering,
// allocation packing on.
type Scheduler struct {
	Platform *platform.Platform
	// MapOptions tunes the mapping step.
	MapOptions mapping.Options
}

// New returns a scheduler for pf in the paper's configuration.
func New(pf *platform.Platform) *Scheduler {
	return &Scheduler{Platform: pf}
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

// Scratch is what one worker owns to schedule one unit of work after
// another — a campaign point, a service request — and amortizes across
// them: the simulated executor's engine, flow net and buffers, the mapper's
// (mapping.Scratch), and the graphs the unit of work generates (Graphs).
// A Scratch must be confined to one goroutine; the Result ScheduleWith
// returns — its β vector and allocations included — and the Evaluation
// slices EvaluateWith fills are scratch-owned and overwritten by the next
// call on the same Scratch, so callers consume them before scheduling again.
//
// A Scratch also computes its allocations through a store of allocation
// traces (alloc.Traces), so that one batch of graphs scheduled several
// times — alone for M_own, then under each strategy — computes each
// distinct (graph, reference cluster, β) once and starts a graph's run
// under a new β from the growth steps its runs under other β already made.
// Graphs' task costs must not be edited while their traces are kept (a
// graph changed through AddTask, AddEdge or Reset is detected); Release
// ends a unit of work and forgets them.
//
// A Scratch owns one seeded random source (Rand), reseeded per use, so a
// unit of work draws its inputs without making a source of its own.
type Scratch struct {
	exec   *simexec.Scratch
	maps   mapping.Scratch
	betas  []float64
	apps   []*alloc.Allocation
	alone  [1]*dag.Graph
	slow   []float64
	res    Result
	traces alloc.Traces
	// graphs is the pool Graphs hands out from; the first used are the
	// current unit of work's.
	graphs []*dag.Graph
	used   int
	rng    *rand.Rand
}

// NewScratch returns an empty scratch ready for ScheduleWith.
func NewScratch() *Scratch {
	return &Scratch{exec: simexec.NewScratch()}
}

// Graphs returns n graphs for the current unit of work to generate into
// (daggen.GenerateInto and the other Into generators reset them first).
// They are the scratch's own: storage of graphs a released unit of work
// generated, or new graphs while the pool grows. Graphs handed out since
// the last Release are never handed out again before the next one, so a
// unit of work may call Graphs more than once; after Release they are
// recycled and must no longer be used.
func (sc *Scratch) Graphs(n int) []*dag.Graph {
	for len(sc.graphs) < sc.used+n {
		sc.graphs = append(sc.graphs, new(dag.Graph))
	}
	gs := sc.graphs[sc.used : sc.used+n : sc.used+n]
	sc.used += n
	return gs
}

// Rand returns the scratch's random source seeded with seed. Seeding resets
// the source's whole state, so it draws what rand.New(rand.NewSource(seed))
// draws, whatever the scratch drew before. The source is the scratch's: the
// next Rand call on sc reseeds it.
func (sc *Scratch) Rand(seed int64) *rand.Rand {
	if sc.rng == nil {
		sc.rng = rand.New(rand.NewSource(seed))
	} else {
		sc.rng.Seed(seed)
	}
	return sc.rng
}

// Release ends a unit of work. It drops everything the scratch still
// references of the caller's graphs — the last Result, the allocation
// traces, the mapper's and the executor's schedule — so a scratch parked
// between unrelated pieces of work (a service worker between requests)
// pins none of them, and it takes back the graphs Graphs handed out, whose
// storage the next unit of work regenerates into. Results the scratch
// returned, and graphs it handed out, are invalid after it.
func (sc *Scratch) Release() {
	sc.traces.Forget()
	clear(sc.apps[:cap(sc.apps)])
	sc.alone[0] = nil
	sc.res = Result{}
	sc.maps.Release()
	sc.exec.Release()
	sc.used = 0
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
	sc.betas = strat.BetasInto(sc.betas, graphs, ref)
	betas := sc.betas
	if cap(sc.apps) < len(graphs) {
		sc.apps = make([]*alloc.Allocation, len(graphs))
	}
	apps := sc.apps[:len(graphs)]
	for i, g := range graphs {
		apps[i] = sc.traces.Compute(g, ref, betas[i], alloc.SCRAPMAX)
	}
	sched := sc.maps.Map(s.Platform, apps, s.MapOptions)
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
