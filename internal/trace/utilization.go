package trace

import (
	"fmt"

	"ptgsched/internal/mapping"
)

// ClusterUtilization is the busy fraction of one cluster over a horizon.
type ClusterUtilization struct {
	Cluster string
	// BusyProcSeconds is the total processor-seconds spent executing
	// tasks.
	BusyProcSeconds float64
	// Utilization is BusyProcSeconds divided by the cluster's capacity
	// over the horizon (procs × horizon).
	Utilization float64
}

// Utilization summarizes how much of each cluster the schedule actually
// uses over the schedule's makespan. The paper's related-work discussion
// (§3) motivates this: HCPA trades a slightly longer makespan for much
// better parallel efficiency, and the resource constraint β exists
// precisely to stop applications from hoarding processors they use
// inefficiently.
func Utilization(s *mapping.Schedule) []ClusterUtilization {
	horizon := s.GlobalMakespan()
	busy := make(map[string]float64)
	for _, p := range s.Placements {
		busy[p.Cluster.Name] += float64(len(p.Procs)) * p.Duration()
	}
	out := make([]ClusterUtilization, 0, len(s.Platform.Clusters))
	for _, c := range s.Platform.Clusters {
		u := ClusterUtilization{Cluster: c.Name, BusyProcSeconds: busy[c.Name]}
		if horizon > 0 {
			u.Utilization = busy[c.Name] / (float64(c.Procs) * horizon)
		}
		out = append(out, u)
	}
	return out
}

// AppEfficiency is the parallel efficiency of one application's schedule.
type AppEfficiency struct {
	App int
	// SeqWorkSeconds is the work of the application expressed as
	// sequential seconds on the processors it actually used: for each
	// task, its work divided by its host cluster's speed.
	SeqWorkSeconds float64
	// ConsumedProcSeconds is the processor-seconds its placements
	// reserved.
	ConsumedProcSeconds float64
	// Efficiency is the ratio of the two: 1 means perfect speedup, lower
	// values mean processors were held while Amdahl serial fractions or
	// packing idled them.
	Efficiency float64
}

// Efficiencies computes per-application parallel efficiency: how well each
// application converted the processor time it reserved into useful work.
func Efficiencies(s *mapping.Schedule) []AppEfficiency {
	out := make([]AppEfficiency, len(s.Apps))
	for i := range out {
		out[i].App = i
	}
	for _, p := range s.Placements {
		e := &out[p.App]
		e.SeqWorkSeconds += p.Task.SeqGFlop / p.Cluster.Speed
		e.ConsumedProcSeconds += float64(len(p.Procs)) * p.Duration()
	}
	for i := range out {
		if out[i].ConsumedProcSeconds > 0 {
			out[i].Efficiency = out[i].SeqWorkSeconds / out[i].ConsumedProcSeconds
		}
	}
	return out
}

// Summary aggregates headline schedule statistics for reports.
type Summary struct {
	Makespan        float64
	Placements      int
	MeanUtilization float64
	MeanEfficiency  float64
}

// Summarize computes a Summary of the schedule.
func Summarize(s *mapping.Schedule) Summary {
	sum := Summary{Makespan: s.GlobalMakespan(), Placements: len(s.Placements)}
	us := Utilization(s)
	for _, u := range us {
		sum.MeanUtilization += u.Utilization
	}
	if len(us) > 0 {
		sum.MeanUtilization /= float64(len(us))
	}
	es := Efficiencies(s)
	for _, e := range es {
		sum.MeanEfficiency += e.Efficiency
	}
	if len(es) > 0 {
		sum.MeanEfficiency /= float64(len(es))
	}
	return sum
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("makespan %.2f s, %d placements, utilization %.1f%%, efficiency %.1f%%",
		s.Makespan, s.Placements, s.MeanUtilization*100, s.MeanEfficiency*100)
}
