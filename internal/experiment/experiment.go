// Package experiment implements the paper's evaluation protocol (§7): for
// each number of concurrent PTGs (2–10), generate 25 random PTG
// combinations, schedule each combination on the four Grid'5000 platforms
// (= 100 runs per point) under every strategy, simulate the executions, and
// aggregate unfairness, average makespan and average relative makespan.
// Config.Defaults is the one statement of that protocol; the paper's
// figures are described once, as specs (scenario.PaperSpec and
// scenario.MuSweepSpec), whose every cell runs a defaulted Config.
//
// Run is the protocol's sequential reference: it executes every run in key
// order on the calling goroutine and starts no other. The parallel form of
// the same campaign is the scenario package's sweep over the figure's
// spec, whose reduction the scenario and store acceptance tests compare
// bit for bit against Run. The sweep's results are the same at every
// worker count because each run derives its scenario from a deterministic
// seed (RunSeed) and the reduction visits runs in a fixed order, so no
// floating-point operation depends on execution interleaving. RunOneWith
// is safe to call concurrently on distinct scratches: runs share only
// immutable state (platforms, strategy values), and every dag.Graph is
// generated privately per run.
package experiment

import (
	"fmt"
	"math/rand"

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
	// Strategies to compare; default the family's paper set, labelled by
	// name. Labels, if set, must be aligned with Strategies and override
	// display names (used by the µ sweep).
	Strategies []strategy.Strategy
	Labels     []string
	// Seed makes the campaign deterministic.
	Seed int64
	// Gen overrides the per-graph generator: it generates one graph into
	// g, resetting it first, as daggen.GenerateInto does (g is a fresh
	// graph or one recycled from an earlier run on the same scratch). When
	// nil, graphs are drawn with daggen.GenerateInto(g, Family, r) — the
	// paper's random parameter grids. The scenario package sets it to pin
	// one explicit grid cell (e.g. a fixed RandomConfig or FFT size) per
	// campaign.
	Gen func(g *dag.Graph, r *rand.Rand) `json:"-"`
}

// MuSweep is the µ grid of Figure 2 and of the per-variant µ calibration.
var MuSweep = []float64{0, 0.3, 0.5, 0.7, 0.8, 0.9, 1}

// Defaults returns cfg with unset (nil or empty) fields filled with the
// paper's protocol. It is the one statement of the run grid's defaults:
// the scenario package builds every cell's Config through it.
func (cfg Config) Defaults() Config {
	if len(cfg.NPTGs) == 0 {
		cfg.NPTGs = []int{2, 4, 6, 8, 10}
	}
	if cfg.Reps == 0 {
		cfg.Reps = 25
	}
	if len(cfg.Platforms) == 0 {
		cfg.Platforms = platform.Grid5000Sites()
	}
	if len(cfg.Strategies) == 0 {
		cfg.Strategies = strategy.PaperSet(cfg.Family)
	}
	if len(cfg.Labels) == 0 {
		cfg.Labels = make([]string, len(cfg.Strategies))
		for i, s := range cfg.Strategies {
			cfg.Labels[i] = s.Name()
		}
	}
	if len(cfg.Labels) != len(cfg.Strategies) {
		panic("experiment: Labels not aligned with Strategies")
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

// Run executes the campaign and aggregates the paper's metrics: every
// (point, rep, platform) run in key order, on one core.Scratch, each
// point's runs reduced in that same order. The run grid is never
// materialized — the same lazy-enumeration discipline the scenario layer's
// PointAt uses.
func Run(cfg Config) *Result {
	cfg = cfg.Defaults()

	res := &Result{Config: cfg}
	ns := len(cfg.Strategies)
	sc := core.NewScratch()
	for pi, n := range cfg.NPTGs {
		perStratUnf := make([][]float64, ns)
		perStratMak := make([][]float64, ns)
		perStratRel := make([][]float64, ns)
		for rep := 0; rep < cfg.Reps; rep++ {
			for pf := range cfg.Platforms {
				out := RunOneWith(cfg, pi, rep, pf, sc)
				for s := 0; s < ns; s++ {
					perStratUnf[s] = append(perStratUnf[s], out.Unfairness[s])
					perStratMak[s] = append(perStratMak[s], out.Makespan[s])
					perStratRel[s] = append(perStratRel[s], out.Rel[s])
				}
			}
		}
		pt := Point{
			NPTGs:          n,
			Unfairness:     make([]float64, ns),
			AvgMakespan:    make([]float64, ns),
			RelMakespan:    make([]float64, ns),
			UnfairnessStd:  make([]float64, ns),
			RelMakespanStd: make([]float64, ns),
			Runs:           cfg.Reps * len(cfg.Platforms),
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

// RunOneWith executes the single campaign run identified by (point, rep,
// platform) — indices into cfg.NPTGs and cfg.Platforms — on the calling
// goroutine, on a worker-owned scratch: the run's graphs are drawn from the
// scratch's seeded source (core.Scratch.Rand) into the scratch's pool
// (core.Scratch.Graphs), the simulation and scheduling state is recycled
// across calls, and the run releases the scratch when it ends, so the
// allocations it remembered of the run's graphs serve no later run and the
// graphs' storage serves the next run's.
// Run is exactly an aggregation of RunOneWith over the full key grid; the
// scenario package calls it directly to sweep spec-driven expansions point
// by point. The scratch changes where buffers live, never what is computed:
// a run on a carried scratch is bit-identical to one on core.NewScratch().
// The Measurement's slices are the run's own, never the scratch's.
func RunOneWith(cfg Config, point, rep, pfIdx int, sc *core.Scratch) Measurement {
	defer sc.Release()
	r := sc.Rand(RunSeed(cfg.Seed, point, rep))
	gen := cfg.Gen
	if gen == nil {
		gen = func(g *dag.Graph, r *rand.Rand) { daggen.GenerateInto(g, cfg.Family, r) }
	}
	graphs := sc.Graphs(cfg.NPTGs[point])
	for _, g := range graphs {
		gen(g, r)
	}
	sched := core.New(cfg.Platforms[pfIdx])
	own := make([]float64, len(graphs))
	for i, g := range graphs {
		own[i] = sched.ScheduleAloneWith(sc, g)
	}

	m := Measurement{
		Unfairness: make([]float64, len(cfg.Strategies)),
		Makespan:   make([]float64, len(cfg.Strategies)),
	}
	for s, strat := range cfg.Strategies {
		res := sched.ScheduleWith(sc, graphs, strat)
		ev := res.EvaluateWith(sc, own)
		m.Unfairness[s] = ev.Unfairness
		m.Makespan[s] = ev.Makespan
	}
	m.Rel = metrics.RelativeMakespans(m.Makespan)
	return m
}

// String summarizes a result compactly.
func (r *Result) String() string {
	return fmt.Sprintf("experiment(%s, %d strategies, %d points, %d runs/point)",
		r.Config.Family, len(r.Config.Strategies), len(r.Points),
		r.Config.Reps*len(r.Config.Platforms))
}
