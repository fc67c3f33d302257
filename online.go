package ptgsched

import (
	"io"

	"ptgsched/internal/dag"
	"ptgsched/internal/online"
	"ptgsched/internal/trace"
	"ptgsched/internal/workload"
)

// Online scheduling (the paper's §8 future-work direction: different
// submission times with constraint recomputation on arrivals/completions).
type (
	// Arrival is one application submission at a given time.
	Arrival = online.Arrival
	// OnlineOptions tunes the online scheduler.
	OnlineOptions = online.Options
	// OnlineResult reports an online run: per-application flow times and
	// the surviving placements.
	OnlineResult = online.Result
	// OnlineAppResult is one application's submission/start/completion.
	OnlineAppResult = online.AppResult
	// ReschedulePolicy decides which work a platform failure invalidates:
	// the restart baseline discards everything, the checkpoint-aware policy
	// keeps completed tasks that survived.
	ReschedulePolicy = online.Policy
)

// Rescheduling policies for dynamic (event-timeline) runs.
const (
	// RestartPolicy re-executes every affected application from scratch.
	RestartPolicy = online.Restart
	// CheckpointPolicy re-executes only the work a failure actually killed.
	CheckpointPolicy = online.Checkpoint
)

// Rescheduling policies by name.
var (
	// ReschedulePolicyByName resolves "restart" or "checkpoint".
	ReschedulePolicyByName = online.PolicyByName
	// ReschedulePolicyNames lists the registered policy names.
	ReschedulePolicyNames = online.PolicyNames
)

// ScheduleOnline runs the online scheduler: applications arrive over time,
// and the β constraints of the active set are recomputed on each arrival
// (and completion, unless disabled), reallocating and remapping all
// not-yet-started tasks.
func ScheduleOnline(pf *Platform, arrivals []Arrival, opts OnlineOptions) *OnlineResult {
	return online.Schedule(pf, arrivals, opts)
}

// Workload generation for the online scheduler.
type (
	// WorkloadSpec describes a synthetic submission workload.
	WorkloadSpec = workload.Spec
	// ArrivalProcess selects burst, Poisson or uniform arrivals.
	ArrivalProcess = workload.Process
)

// Arrival processes.
const (
	BurstArrivals   = workload.Burst
	PoissonArrivals = workload.Poisson
	UniformArrivals = workload.Uniform
)

// Workload entry points.
var (
	// GenerateWorkload draws a synthetic workload.
	GenerateWorkload = workload.Generate
	// WriteWorkloadTrace and ReadWorkloadTrace persist workloads as JSON.
	WriteWorkloadTrace = workload.WriteTrace
	ReadWorkloadTrace  = workload.ReadTrace
)

// Schedule analysis.
type (
	// ClusterUtilization is one cluster's busy fraction.
	ClusterUtilization = trace.ClusterUtilization
	// AppEfficiency is one application's parallel efficiency.
	AppEfficiency = trace.AppEfficiency
	// ScheduleSummary aggregates headline schedule statistics.
	ScheduleSummary = trace.Summary
	// GraphStats summarizes a PTG's structure (see Graph.ComputeStats).
	GraphStats = dag.Stats
)

// Analysis entry points.
var (
	// ScheduleUtilization computes per-cluster busy fractions.
	ScheduleUtilization = trace.Utilization
	// ScheduleEfficiencies computes per-application parallel efficiency.
	ScheduleEfficiencies = trace.Efficiencies
	// SummarizeSchedule computes a ScheduleSummary.
	SummarizeSchedule = trace.Summarize
)

// WriteWorkloadDOT renders every graph of a workload to one DOT stream,
// separated by blank lines, for quick visual inspection.
func WriteWorkloadDOT(w io.Writer, arrivals []Arrival) error {
	for _, a := range arrivals {
		if err := a.Graph.WriteDOT(w); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
