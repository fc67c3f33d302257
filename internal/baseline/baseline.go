// Package baseline implements the single-PTG schedulers from the related
// work the paper builds on (§3): HEFT (list scheduling of sequential-task
// DAGs), M-HEFT (its moldable-task extension), and the CPA/HCPA allocation
// procedures that SCRAP generalizes. They provide context and ablation
// points: the paper's S strategy behaves like these dedicated-platform
// heuristics when applications compete.
//
// Concurrency: the schedulers keep all mutable state in per-call values;
// like every pipeline in this module they mutate their input graph's
// analysis caches, so concurrent calls are safe only on distinct graphs.
package baseline

import (
	"math"
	"sort"

	"ptgsched/internal/alloc"
	"ptgsched/internal/cost"
	"ptgsched/internal/dag"
	"ptgsched/internal/mapping"
	"ptgsched/internal/platform"
)

// CPA computes the classical Critical Path and Area-based allocation [12]
// on the homogeneous reference cluster: allocations on critical-path tasks
// grow until the critical path no longer exceeds the average area (total
// work area divided by the number of processors). This is exactly the SCRAP
// procedure with β = 1: SCRAP's global test TotalArea/CP ≤ P is CPA's
// stopping condition, which is why SCRAP is its constrained generalization
// (§4).
func CPA(g *dag.Graph, ref platform.Reference) *alloc.Allocation {
	return alloc.Compute(g, ref, 1, alloc.SCRAP)
}

// HCPA schedules a single PTG with the Heterogeneous CPA pipeline [9]: CPA
// allocation on the reference cluster, then translation and EFT mapping on
// the concrete clusters.
func HCPA(pf *platform.Platform, g *dag.Graph) *mapping.Schedule {
	a := CPA(g, pf.ReferenceCluster())
	return mapping.Map(pf, []*alloc.Allocation{a}, mapping.Options{})
}

// HEFT schedules a single PTG treating every task as sequential [14]: one
// processor per task, tasks mapped in decreasing bottom-level order with
// earliest-finish-time processor selection. (This is HEFT without
// insertion-based backfilling, consistent with the non-backfilling mapper
// used throughout this repository.)
func HEFT(pf *platform.Platform, g *dag.Graph) *mapping.Schedule {
	procs := make([]int, len(g.Tasks))
	for i := range procs {
		procs[i] = 1
	}
	a := &alloc.Allocation{Graph: g, Ref: pf.ReferenceCluster(), Beta: 1, Procs: procs}
	return mapping.Map(pf, []*alloc.Allocation{a}, mapping.Options{Ordering: mapping.Global, NoPacking: true})
}

// MHEFTEfficiencyFloor is the parallel-efficiency bound of the improved
// M-HEFT of [11]: a task may only use p processors if its Amdahl speedup
// divided by p stays at or above this floor, which prevents the original
// M-HEFT's pathological full-cluster allocations.
const MHEFTEfficiencyFloor = 0.5

// MHEFT schedules a single PTG with the moldable extension of HEFT [1][11]:
// tasks are considered in decreasing bottom-level order; for each task
// every (cluster, processor count) pair meeting the efficiency floor is
// evaluated and the earliest-finishing one wins.
func MHEFT(pf *platform.Platform, g *dag.Graph) *mapping.Schedule {
	ref := pf.ReferenceCluster()
	a := &alloc.Allocation{Graph: g, Ref: ref, Beta: 1, Procs: make([]int, len(g.Tasks))}
	for i := range a.Procs {
		a.Procs[i] = 1 // placeholder; MHEFT decides widths during mapping
	}
	sched := mapping.NewSchedule(pf, []*alloc.Allocation{a})

	avail := make([][]float64, len(pf.Clusters))
	for k, c := range pf.Clusters {
		avail[k] = make([]float64, c.Procs)
	}

	seq := func(t *dag.Task) float64 { return cost.SeqTime(t.SeqGFlop, ref.Speed) }
	bl := g.BottomLevels(seq)
	order := make([]*dag.Task, len(g.Tasks))
	copy(order, g.Tasks)
	sort.Slice(order, func(i, j int) bool {
		if bl[order[i].ID] != bl[order[j].ID] {
			return bl[order[i].ID] > bl[order[j].ID]
		}
		return order[i].ID < order[j].ID
	})

	for _, t := range order {
		dataReady := func(c *platform.Cluster) float64 {
			ready := 0.0
			for _, e := range t.In() {
				p := sched.PlacementOf(e.From)
				at := p.End + pf.TransferTime(p.Cluster, c, e.Bytes)
				if at > ready {
					ready = at
				}
			}
			return ready
		}

		bestEnd := math.Inf(1)
		var bestCluster *platform.Cluster
		var bestStart float64
		bestP := 1
		for _, c := range pf.Clusters {
			free := append([]float64(nil), avail[c.Index]...)
			sort.Float64s(free)
			ready := dataReady(c)
			maxP := c.Procs
			for p := 1; p <= maxP; p++ {
				if cost.Speedup(t.Alpha, p)/float64(p) < MHEFTEfficiencyFloor {
					break // efficiency only degrades as p grows
				}
				start := math.Max(ready, free[p-1])
				end := start + cost.TaskTime(t, c.Speed, p)
				if end < bestEnd || (end == bestEnd && p < bestP) {
					bestEnd, bestStart, bestP, bestCluster = end, start, p, c
				}
			}
		}

		k := bestCluster.Index
		idx := make([]int, len(avail[k]))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(i, j int) bool { return avail[k][idx[i]] < avail[k][idx[j]] })
		chosen := append([]int(nil), idx[:bestP]...)
		sort.Ints(chosen)
		for _, i := range chosen {
			avail[k][i] = bestEnd
		}
		a.Procs[t.ID] = bestP
		sched.Add(&mapping.Placement{
			App:     0,
			Task:    t,
			Cluster: bestCluster,
			Procs:   chosen,
			Start:   bestStart,
			End:     bestEnd,
		})
	}
	return sched
}
