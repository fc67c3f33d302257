// Package ptgsched reproduces the system of N'Takpé & Suter, "Concurrent
// Scheduling of Parallel Task Graphs on Multi-Clusters Using Constrained
// Resource Allocations" (INRIA RR-6774, IPDPS/IPPS 2009): scheduling of
// several mixed-parallel applications (parallel task graphs, PTGs) that are
// submitted concurrently to a heterogeneous multi-cluster platform.
//
// The pipeline is the paper's two-step approach. First, a resource
// constraint β is determined per application by one of eight strategies
// (selfish, equal share, proportional share or weighted proportional share
// on critical path / width / work). Then each application's tasks are
// allocated processors on a homogeneous reference cluster with the
// SCRAP-MAX constrained procedure, and all applications are mapped together
// by a ready-task list scheduler with allocation packing. Schedules are
// executed on a discrete-event simulator with max-min fair network
// contention, standing in for the paper's SimGrid setup.
//
// Quick start:
//
//	pf := ptgsched.Rennes()
//	sched := ptgsched.NewScheduler(pf)
//	r := rand.New(rand.NewSource(1))
//	graphs := []*ptgsched.Graph{
//		ptgsched.RandomPTG(ptgsched.RandomConfig{Tasks: 20, Width: 0.5,
//			Regularity: 0.8, Density: 0.2, Jump: 1}, r),
//		ptgsched.StrassenPTG(r),
//	}
//	res := sched.Schedule(graphs, ptgsched.WPS(ptgsched.Width, 0.5))
//	fmt.Println(res.GlobalMakespan())
//
// Every figure of the paper's evaluation is a campaign spec
// (PaperCampaignSpec "fig2" … "fig5", MuSweepCampaignSpec for the µ
// calibration) that regenerates it; see the cmd/ptgbench doc comment for
// the command-line entry points.
//
// Above the per-batch pipeline sits the concurrency layer: NewService
// starts a bounded worker pool multiplexing many
// schedule/online/workload/campaign requests through one shared server
// core, and Serve exposes it over HTTP+JSON (the cmd/ptgserve surface).
// RunExperiment is the evaluation protocol's sequential reference: it runs
// a campaign on the calling goroutine. Its parallel form is the figure's
// PaperCampaignSpec (or MuSweepCampaignSpec) expanded and swept through
// the campaign engine below, whose tables are bit-identical to it.
//
// Arbitrary scenario spaces are described declaratively: ParseCampaignSpec
// reads a JSON campaign spec (platforms including inline heterogeneous
// cluster specs, PTG families with explicit parameter grids, strategy
// sets, seeds, replication counts, online arrival processes),
// ExpandCampaign enumerates its deterministic cartesian sweep, and the
// expansion runs whole, as one shard of n (recombining bit-identically),
// or point by point. The checked-in examples/campaign.json reproduces the
// paper's Figure 3 campaign through this path.
//
// Concurrency contract, in brief: a Platform (and its presets) is
// immutable after construction and freely shared; a Scheduler is an
// immutable configuration whose Schedule calls keep all mutable state
// per-call; a Graph carries cached analyses and must be confined to one
// scheduling pipeline at a time. Independent runs over distinct graphs
// therefore parallelize without locks — the Service and the campaign
// engine are built exactly on that rule. Each internal package's godoc
// states its own contract.
package ptgsched

import (
	"io"
	"math/rand"

	"ptgsched/internal/alloc"
	"ptgsched/internal/baseline"
	"ptgsched/internal/core"
	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/experiment"
	"ptgsched/internal/mapping"
	"ptgsched/internal/metrics"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
	"ptgsched/internal/trace"
)

// Platform modelling.
type (
	// Platform is a heterogeneous multi-cluster site.
	Platform = platform.Platform
	// Cluster is one homogeneous cluster of a platform.
	Cluster = platform.Cluster
	// ClusterSpec describes a cluster for NewPlatform.
	ClusterSpec = platform.ClusterSpec
	// Reference is the homogeneous reference cluster used by allocation.
	Reference = platform.Reference
)

// NewPlatform assembles a platform from cluster specs; sharedSwitch selects
// the site network topology.
func NewPlatform(name string, sharedSwitch bool, specs ...ClusterSpec) *Platform {
	return platform.New(name, sharedSwitch, specs...)
}

// Grid'5000 presets (Table 1 of the paper).
var (
	Lille         = platform.Lille
	Nancy         = platform.Nancy
	Rennes        = platform.Rennes
	Sophia        = platform.Sophia
	Grid5000Sites = platform.Grid5000Sites
)

// PTG modelling and generation.
type (
	// Graph is a parallel task graph. Its structural analyses (topological
	// order, precedence levels, entries/exits) are cached on the graph and
	// share scratch buffers, so a Graph must not be analyzed or scheduled
	// from multiple goroutines concurrently, and slices returned by its
	// analysis methods must be treated as read-only.
	Graph = dag.Graph
	// Task is a moldable data-parallel task.
	Task = dag.Task
	// Edge is a data dependence between tasks.
	Edge = dag.Edge
	// RandomConfig parameterizes the synthetic PTG generator.
	RandomConfig = daggen.RandomConfig
	// PTGFamily identifies one of the paper's PTG families.
	PTGFamily = daggen.Family
)

// PTG family constants.
const (
	FamilyRandom   = daggen.FamilyRandom
	FamilyFFT      = daggen.FamilyFFT
	FamilyStrassen = daggen.FamilyStrassen
)

// NewGraph returns an empty PTG; add tasks and edges with its methods.
func NewGraph(name string) *Graph { return dag.New(name) }

// RandomPTG generates a synthetic PTG per the paper's §2 model.
func RandomPTG(cfg RandomConfig, r *rand.Rand) *Graph { return daggen.Random(cfg, r) }

// FFTPTG generates the PTG of a 2^k-point mixed-parallel FFT.
func FFTPTG(k int, r *rand.Rand) *Graph { return daggen.FFT(k, r) }

// StrassenPTG generates the 25-task Strassen multiplication PTG.
func StrassenPTG(r *rand.Rand) *Graph { return daggen.Strassen(r) }

// GeneratePTG draws one PTG of the given family from the paper's parameter
// grids.
func GeneratePTG(f PTGFamily, r *rand.Rand) *Graph { return daggen.Generate(f, r) }

// Constraint determination strategies (§6).
type (
	// Strategy determines the per-application resource constraint β.
	Strategy = strategy.Strategy
	// Characteristic selects the PTG property used by PS/WPS strategies.
	Characteristic = strategy.Characteristic
)

// Characteristics.
const (
	CriticalPath = strategy.CriticalPath
	Width        = strategy.Width
	Work         = strategy.Work
)

// Strategy constructors.
var (
	// S is the selfish strategy: β = 1 for every application.
	S = strategy.S
	// ES is the equal-share strategy: β = 1/|A|.
	ES = strategy.ES
	// PS is the proportional-share strategy on a characteristic (Eq. 1).
	PS = strategy.PS
	// WPS is the weighted proportional-share strategy (Eq. 2).
	WPS = strategy.WPS
	// DefaultMu returns the paper's calibrated µ for a WPS variant.
	DefaultMu = strategy.DefaultMu
	// PaperStrategies returns the strategy set the paper evaluates for a
	// PTG family.
	PaperStrategies = strategy.PaperSet
)

// Scheduling.
type (
	// Scheduler runs the full strategy→allocation→mapping→simulation
	// pipeline.
	Scheduler = core.Scheduler
	// ScheduleResult is the outcome of scheduling one batch.
	ScheduleResult = core.Result
	// Evaluation bundles the paper's metrics for one batch.
	Evaluation = core.Evaluation
	// Allocation is a per-task processor allocation on the reference
	// cluster.
	Allocation = alloc.Allocation
	// Schedule is a mapped schedule.
	Schedule = mapping.Schedule
	// Placement locates one task's execution.
	Placement = mapping.Placement
	// MapOptions tunes the mapping step (ordering, packing).
	MapOptions = mapping.Options
)

// NewScheduler returns a scheduler in the paper's configuration (SCRAP-MAX
// allocation, ready-task ordering, packing on).
func NewScheduler(pf *Platform) *Scheduler { return core.New(pf) }

// Mapping orderings.
const (
	// ReadyTasksOrdering is the paper's ready-task bottom-level ordering.
	ReadyTasksOrdering = mapping.ReadyTasks
	// GlobalOrdering is the classical aggregated ordering (Fig. 1's
	// counterexample).
	GlobalOrdering = mapping.Global
)

// Baseline single-PTG schedulers from related work.
var (
	// HEFT list-schedules a PTG with sequential tasks.
	HEFT = baseline.HEFT
	// MHEFT is the moldable extension of HEFT with an efficiency floor.
	MHEFT = baseline.MHEFT
	// CPA computes the classical critical-path-and-area allocation.
	CPA = baseline.CPA
	// HCPA schedules one PTG with the heterogeneous CPA pipeline.
	HCPA = baseline.HCPA
)

// Metrics (§7, Eq. 3–5).
var (
	// Slowdown is M_own/M_multi for one application.
	Slowdown = metrics.Slowdown
	// Unfairness sums absolute slowdown deviations from the mean.
	Unfairness = metrics.Unfairness
	// RelativeMakespans normalizes strategy makespans by the best one.
	RelativeMakespans = metrics.RelativeMakespans
)

// Experiment harness regenerating the paper's evaluation.
type (
	// ExperimentConfig describes one campaign.
	ExperimentConfig = experiment.Config
	// ExperimentResult is an aggregated campaign outcome.
	ExperimentResult = experiment.Result
	// ExperimentMetric selects a series to render.
	ExperimentMetric = experiment.Metric
)

// Experiment entry points.
var (
	// RunExperiment executes a campaign sequentially.
	RunExperiment = experiment.Run
)

// Experiment metrics.
const (
	MetricUnfairness  = experiment.Unfairness
	MetricAvgMakespan = experiment.AvgMakespan
	MetricRelMakespan = experiment.RelMakespan
)

// Schedule inspection.

// ValidateSchedule checks a schedule's structural invariants.
func ValidateSchedule(s *Schedule) error { return trace.Validate(s) }

// WriteGantt renders a text Gantt chart of a schedule.
func WriteGantt(w io.Writer, s *Schedule, width int) error { return trace.Gantt(w, s, width) }

// WriteScheduleJSON exports a schedule's placements as JSON.
func WriteScheduleJSON(w io.Writer, s *Schedule) error { return trace.WriteJSON(w, s) }
