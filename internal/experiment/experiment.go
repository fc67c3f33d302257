// Package experiment implements the paper's evaluation protocol (§7): for
// each number of concurrent PTGs (2–10), generate 25 random PTG
// combinations, schedule each combination on the four Grid'5000 platforms
// (= 100 runs per point) under every strategy, simulate the executions, and
// aggregate unfairness, average makespan and average relative makespan.
//
// Concurrency: Run fans the campaign's runs out over a fixed pool of
// Config.Workers goroutines (default GOMAXPROCS); Workers ≤ 1 runs inline
// on the calling goroutine. Results are bit-identical at every worker
// count: each run derives its scenario from a deterministic seed (runSeed),
// writes only its own output slot, and the aggregation pass reduces those
// slots in a fixed order, so no floating-point operation depends on
// execution interleaving. Runs share only immutable state (platforms,
// strategy values); every dag.Graph is generated privately per run.
package experiment

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"ptgsched/internal/core"
	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/metrics"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
)

// Config describes one experiment campaign. Zero fields take the paper's
// defaults (see Defaults).
type Config struct {
	// Family selects the PTG family (random, FFT, Strassen).
	Family daggen.Family
	// NPTGs lists the numbers of concurrent PTGs; default {2,4,6,8,10}.
	NPTGs []int
	// Reps is the number of random PTG combinations per point; default 25
	// (so 100 runs per point over the 4 default platforms).
	Reps int
	// Platforms are the target sites; default the four Grid'5000 subsets.
	Platforms []*platform.Platform
	// Strategies to compare; default strategy.PaperSet(Family). Labels, if
	// set, must be aligned with Strategies and override display names
	// (used by the µ sweep).
	Strategies []strategy.Strategy
	Labels     []string
	// Seed makes the campaign deterministic.
	Seed int64
	// Gen overrides the per-graph generator. When nil, graphs are drawn
	// with daggen.Generate(Family, r) — the paper's random parameter
	// grids. The scenario package sets it to pin one explicit grid cell
	// (e.g. a fixed RandomConfig or FFT size) per campaign.
	Gen func(r *rand.Rand) *dag.Graph `json:"-"`
	// Workers is the number of goroutines runs are fanned out over;
	// default GOMAXPROCS. 1 (or negative) runs the campaign sequentially
	// on the calling goroutine. Results are identical for any value.
	Workers int
}

// Defaults returns cfg with unset fields filled with the paper's protocol.
func (cfg Config) Defaults() Config {
	if cfg.NPTGs == nil {
		cfg.NPTGs = []int{2, 4, 6, 8, 10}
	}
	if cfg.Reps == 0 {
		cfg.Reps = 25
	}
	if cfg.Platforms == nil {
		cfg.Platforms = platform.Grid5000Sites()
	}
	if cfg.Strategies == nil {
		cfg.Strategies = strategy.PaperSet(cfg.Family)
	}
	if cfg.Labels == nil {
		cfg.Labels = make([]string, len(cfg.Strategies))
		for i, s := range cfg.Strategies {
			cfg.Labels[i] = s.Name()
		}
	}
	if len(cfg.Labels) != len(cfg.Strategies) {
		panic("experiment: Labels not aligned with Strategies")
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return cfg
}

// Point aggregates one (number of PTGs) measurement across runs: one value
// per strategy, averaged over Reps × len(Platforms) runs.
type Point struct {
	NPTGs int
	// Unfairness[s] is the mean unfairness of strategy s (Eq. 5).
	Unfairness []float64
	// AvgMakespan[s] is the mean simulated global makespan in seconds
	// (used by Fig. 2, which reports absolute makespans).
	AvgMakespan []float64
	// RelMakespan[s] is the mean relative makespan: per run, each
	// strategy's makespan divided by the best strategy's makespan of that
	// run (used by Figs. 3–5).
	RelMakespan []float64
	// UnfairnessStd and RelMakespanStd are sample standard deviations
	// across runs, for error reporting.
	UnfairnessStd  []float64
	RelMakespanStd []float64
	// Runs is the number of runs aggregated.
	Runs int
}

// Result is a full campaign outcome.
type Result struct {
	Config Config
	Points []Point
}

// Run executes the campaign and aggregates the paper's metrics. The run
// grid is never materialized: the worker pool is driven by a bare index
// generator (ForEachWorker), and each index is decomposed arithmetically
// into its (point, rep, platform) key — the same lazy-enumeration
// discipline the scenario layer's PointAt uses. Each pool slot owns one Scratch, so
// the simulation state is reused across all the runs a worker executes.
func Run(cfg Config) *Result {
	cfg = cfg.Defaults()

	perPoint := cfg.Reps * len(cfg.Platforms)
	total := len(cfg.NPTGs) * perPoint
	outs := make([]Measurement, total)
	scratches := make([]*Scratch, Workers(total, cfg.Workers))
	ForEachWorker(total, cfg.Workers, func(w, i int) {
		sc := scratches[w]
		if sc == nil {
			sc = NewScratch()
			scratches[w] = sc
		}
		// Decompose i along the (point, rep, platform) enumeration order.
		pi := i / perPoint
		rem := i % perPoint
		outs[i] = RunOneWith(cfg, pi, rem/len(cfg.Platforms), rem%len(cfg.Platforms), sc)
	})

	res := &Result{Config: cfg}
	ns := len(cfg.Strategies)
	for pi, n := range cfg.NPTGs {
		perStratUnf := make([][]float64, ns)
		perStratMak := make([][]float64, ns)
		perStratRel := make([][]float64, ns)
		runs := 0
		// The point's runs occupy a contiguous index block, in exactly the
		// order the materialized key slice used to enumerate them.
		for _, out := range outs[pi*perPoint : (pi+1)*perPoint] {
			runs++
			for s := 0; s < ns; s++ {
				perStratUnf[s] = append(perStratUnf[s], out.Unfairness[s])
				perStratMak[s] = append(perStratMak[s], out.Makespan[s])
				perStratRel[s] = append(perStratRel[s], out.Rel[s])
			}
		}
		pt := Point{
			NPTGs:          n,
			Unfairness:     make([]float64, ns),
			AvgMakespan:    make([]float64, ns),
			RelMakespan:    make([]float64, ns),
			UnfairnessStd:  make([]float64, ns),
			RelMakespanStd: make([]float64, ns),
			Runs:           runs,
		}
		for s := 0; s < ns; s++ {
			pt.Unfairness[s] = metrics.Mean(perStratUnf[s])
			pt.AvgMakespan[s] = metrics.Mean(perStratMak[s])
			pt.RelMakespan[s] = metrics.Mean(perStratRel[s])
			pt.UnfairnessStd[s] = metrics.StdDev(perStratUnf[s])
			pt.RelMakespanStd[s] = metrics.StdDev(perStratRel[s])
		}
		res.Points = append(res.Points, pt)
	}
	return res
}

// Workers resolves the effective pool size ForEachWorker uses for n jobs:
// 0 means GOMAXPROCS, anything ≤ 1 means inline, and the pool never
// exceeds the job count. Callers sizing per-worker state (scratch
// arenas, emit batches) allocate exactly Workers(n, workers) slots.
func Workers(n, workers int) int {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEachWorker runs fn(worker, i) for every i in [0, n) over a fixed pool
// of workers goroutines (workers ≤ 1 runs inline on the calling goroutine;
// workers = 0 uses GOMAXPROCS) and returns when every call has finished.
// It is the campaign worker pool shared by Run and scenario's Sweep.
// worker ∈ [0, Workers(n, workers)) names the goroutine executing the
// call. A slot runs its calls strictly sequentially, so per-worker state
// indexed by the slot — scratch arenas, result batches — needs no
// synchronization of its own. Which indices land on which slot is
// scheduling-dependent; fn must write only state owned by its index or
// its slot, so results are independent of the fan-out.
func ForEachWorker(n, workers int, fn func(worker, i int)) {
	workers = Workers(n, workers)
	if workers <= 1 {
		// Sequential reference path: no goroutines at all.
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	// Fixed worker pool over an index feed. Each worker touches only the
	// indices it consumes; deterministic per-index work makes the fan-out
	// invisible in the results.
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				fn(w, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// RunSeed derives a deterministic seed for one run, independent of
// execution order. The PTG combination is shared by all platforms of the
// same (point, rep) pair, as in the paper's "25 random combinations"
// protocol, so the platform index does not enter the seed.
func RunSeed(base int64, point, rep int) int64 {
	h := uint64(base) * 0x9e3779b97f4a7c15
	h ^= uint64(point+1) * 0xbf58476d1ce4e5b9
	h ^= uint64(rep+1) * 0x94d049bb133111eb
	h ^= h >> 31
	return int64(h)
}

// Measurement is the outcome of one campaign run: one value per strategy.
type Measurement struct {
	// Unfairness is Eq. 5 per strategy.
	Unfairness []float64
	// Makespan is the simulated global makespan in seconds per strategy.
	Makespan []float64
	// Rel is each strategy's makespan divided by the run's best one.
	Rel []float64
}

// Scratch amortizes one worker's per-run state — the core scheduler
// scratch (simulation engine, flow net, executor buffers) plus the run's
// graph and M_own slices and a per-platform scheduler — across the many
// runs a pool slot executes. A Scratch must be confined to one goroutine.
// The Measurements RunOneWith returns are NOT scratch-owned: their slices
// are freshly allocated, so results may be retained and batched freely.
type Scratch struct {
	core   *core.Scratch
	graphs []*dag.Graph
	own    []float64
	// Scheduler cache keyed by platform index; pfs guards reuse across
	// calls with different Config values.
	pfs    []*platform.Platform
	scheds []*core.Scheduler
}

// NewScratch returns an empty scratch ready for RunOneWith.
func NewScratch() *Scratch {
	return &Scratch{core: core.NewScratch()}
}

// schedulerFor returns the cached paper-configuration scheduler for
// platform pfIdx, building it on first use (or when the platform set
// changed between calls, which only mixed-config callers do).
func (sc *Scratch) schedulerFor(pf *platform.Platform, pfIdx int) *core.Scheduler {
	for len(sc.scheds) <= pfIdx {
		sc.scheds = append(sc.scheds, nil)
		sc.pfs = append(sc.pfs, nil)
	}
	if sc.pfs[pfIdx] != pf {
		sc.scheds[pfIdx] = core.New(pf)
		sc.pfs[pfIdx] = pf
	}
	return sc.scheds[pfIdx]
}

// RunOneWith executes the single campaign run identified by (point, rep,
// platform) — indices into cfg.NPTGs and cfg.Platforms — on the calling
// goroutine, on a worker-owned scratch: the simulation and scheduling state
// is recycled across calls, so a worker sweeping thousands of runs
// allocates only what escapes into the Measurement. Run is exactly an
// aggregation of RunOneWith over the full key grid; the scenario package
// calls it directly to sweep spec-driven expansions point by point. The
// scratch changes where buffers live, never what is computed: a run on a
// carried scratch is bit-identical to one on NewScratch().
func RunOneWith(cfg Config, point, rep, pfIdx int, sc *Scratch) Measurement {
	r := rand.New(rand.NewSource(RunSeed(cfg.Seed, point, rep)))
	n := cfg.NPTGs[point]
	gen := cfg.Gen
	if gen == nil {
		gen = func(r *rand.Rand) *dag.Graph { return daggen.Generate(cfg.Family, r) }
	}
	sc.graphs = growSlice(sc.graphs, n)
	graphs := sc.graphs
	for i := range graphs {
		graphs[i] = gen(r)
	}
	pf := cfg.Platforms[pfIdx]
	sched := sc.schedulerFor(pf, pfIdx)
	// The run's graphs are new: the allocations the scratch remembers from
	// the slot's previous run serve nothing here and would pin its graphs.
	sc.core.ForgetAllocations()

	sc.own = growSlice(sc.own, n)
	own := sc.own
	for i, g := range graphs {
		own[i] = sched.ScheduleAloneWith(sc.core, g)
	}

	m := Measurement{
		Unfairness: make([]float64, len(cfg.Strategies)),
		Makespan:   make([]float64, len(cfg.Strategies)),
	}
	for s, strat := range cfg.Strategies {
		res := sched.ScheduleWith(sc.core, graphs, strat)
		ev := res.EvaluateWith(sc.core, own)
		m.Unfairness[s] = ev.Unfairness
		m.Makespan[s] = ev.Makespan
	}
	m.Rel = metrics.RelativeMakespans(m.Makespan)
	return m
}

// growSlice resizes s to length n, reusing capacity when possible. The
// returned slice's contents are unspecified; callers overwrite them.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// String summarizes a result compactly.
func (r *Result) String() string {
	return fmt.Sprintf("experiment(%s, %d strategies, %d points, %d runs/point)",
		r.Config.Family, len(r.Config.Strategies), len(r.Points),
		r.Config.Reps*len(r.Config.Platforms))
}
