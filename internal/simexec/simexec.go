// Package simexec executes a mapped schedule on the discrete-event
// simulation engine, the role SimGrid plays in the paper's evaluation (§7):
// "They account for time taken by computation and data redistribution
// operations."
//
// The mapper (package mapping) works with contention-free transfer-time
// estimates; simexec replays the schedule with *actual* network contention:
// every data redistribution is a flow on the platform's links under bounded
// max-min fair sharing, so concurrent redistributions slow each other down
// exactly as the site topology dictates (shared switch vs per-cluster
// switches). Computations keep their mapped processor sets and widths;
// their start times are determined dynamically by data arrival and by the
// mapped execution order on each processor.
//
// Concurrency: Execute builds a fresh execution state per call and only
// reads the schedule and its platform, so independent schedules may be
// executed concurrently; a single schedule must not be executed while it
// is being mutated. A Scratch amortizes that state across the many
// schedules one worker replays — it is worker-owned and must be confined
// to one goroutine.
package simexec

import (
	"fmt"

	"ptgsched/internal/cost"
	"ptgsched/internal/mapping"
	"ptgsched/internal/sim"
)

// Result reports the simulated execution of a schedule.
type Result struct {
	// AppMakespans is the completion time of each application: the latest
	// actual end time over its tasks.
	AppMakespans []float64
	// Makespan is the completion time of the whole batch.
	Makespan float64
	// Starts and Ends give per-task actual times indexed like
	// Schedule.Placements.
	Starts, Ends []float64
}

// flowEdge is one DAG edge between task indices.
type flowEdge struct {
	from, to int
	bytes    float64
}

// execTask tracks the runtime state of one placement.
type execTask struct {
	p     *mapping.Placement
	flows int // input flows not yet arrived
	procs int // processor reservations not yet released by predecessors
	start float64
	end   float64
	done  bool
}

// Scratch owns every piece of per-execution state — engine, flow net,
// task records, per-processor queues, dependence lists — and reuses it
// across Execute calls, so a worker replaying thousands of schedules
// allocates only while its high-water marks grow. A Scratch must be
// confined to one goroutine; results it returns are overwritten by the
// next Execute on the same Scratch.
type Scratch struct {
	eng *sim.Engine
	net *sim.FlowNet

	sched *mapping.Schedule
	tasks []execTask

	// Per-processor execution queues as CSR over the global processor
	// index (clusterOff[c] + proc): qStart[g]..qStart[g+1] indexes
	// qItems, each item a task index.
	clusterOff []int
	qStart     []int
	qCur       []int
	qItems     []int
	// Release-dependence successors as CSR over task index: each
	// adjacent pair in a processor queue contributes one edge.
	succStart []int
	succCur   []int
	succs     []int
	// Outgoing data redistributions as CSR over the producer's task
	// index, in DAG edge order. edges is buildFlows' scratch: every edge
	// with its two ends resolved to task indices, once.
	flowStart []int
	flowCur   []int
	flowTo    []int
	flowBytes []float64
	edges     []flowEdge

	// Per-slot callbacks, created once as the scratch grows and reused
	// across runs: computeFns[i] completes task i, arriveFns[i] records
	// one input flow arrival at task i. They capture only the Scratch
	// and the slot index, so no per-event closure is allocated.
	computeFns []func()
	arriveFns  []func(float64)

	res Result
}

// NewScratch returns an empty scratch ready for Execute.
func NewScratch() *Scratch {
	eng := sim.NewEngine()
	return &Scratch{eng: eng, net: sim.NewFlowNet(eng)}
}

// Release drops the scratch's references to the last executed schedule —
// its placements, and through them the batch's graphs — so a scratch
// parked between uses does not keep that batch alive. Buffers are kept,
// and so are the values of the last Result.
func (sc *Scratch) Release() {
	sc.sched = nil
	tasks := sc.tasks[:cap(sc.tasks)]
	for i := range tasks {
		tasks[i].p = nil
	}
}

// Execute replays the schedule and returns the simulated times. It panics
// if the schedule deadlocks, which only an inconsistent hand-built schedule
// (circular per-processor orders) can cause.
func Execute(s *mapping.Schedule) *Result {
	return NewScratch().Execute(s)
}

// Execute replays the schedule on the scratch's reusable state. The
// returned Result (and its slices) belongs to the scratch and is
// overwritten by the next Execute call on it.
func (sc *Scratch) Execute(s *mapping.Schedule) *Result {
	sc.eng.Reset()
	sc.net.Reset()
	sc.sched = s

	n := len(s.Placements)
	sc.tasks = growSlice(sc.tasks, n)
	for i, p := range s.Placements {
		sc.tasks[i] = execTask{p: p, start: -1}
	}
	for len(sc.computeFns) < n {
		i := len(sc.computeFns)
		sc.computeFns = append(sc.computeFns, func() { sc.finishTask(i) })
		sc.arriveFns = append(sc.arriveFns, func(float64) {
			sc.tasks[i].flows--
			sc.tryStart(i)
		})
	}

	sc.buildQueues(s)
	sc.buildFlows(s)

	for i := range sc.tasks {
		sc.tryStart(i)
	}
	sc.eng.Run()

	res := &sc.res
	res.AppMakespans = growSlice(res.AppMakespans, len(s.Apps))
	for i := range res.AppMakespans {
		res.AppMakespans[i] = 0
	}
	res.Starts = growSlice(res.Starts, n)
	res.Ends = growSlice(res.Ends, n)
	res.Makespan = 0
	for i := range sc.tasks {
		et := &sc.tasks[i]
		if !et.done {
			panic(fmt.Sprintf("simexec: deadlock: task %q never ran", et.p.Task.Name))
		}
		res.Starts[i] = et.start
		res.Ends[i] = et.end
		if et.end > res.AppMakespans[et.p.App] {
			res.AppMakespans[et.p.App] = et.end
		}
		if et.end > res.Makespan {
			res.Makespan = et.end
		}
	}
	return res
}

// buildQueues derives the per-processor execution order — mapped start
// time, then placement index for determinism — and turns each adjacent
// queue pair into a release-dependence.
func (sc *Scratch) buildQueues(s *mapping.Schedule) {
	pf := s.Platform
	sc.clusterOff = growSlice(sc.clusterOff, len(pf.Clusters))
	total := 0
	for k, c := range pf.Clusters {
		sc.clusterOff[k] = total
		total += c.Procs
	}

	// Counting-sort the placements into per-processor buckets: count,
	// prefix-sum, fill in placement order (so each bucket starts sorted
	// by placement index).
	items := 0
	sc.qStart = growSlice(sc.qStart, total+1)
	for i := range sc.qStart {
		sc.qStart[i] = 0
	}
	for i := range sc.tasks {
		p := sc.tasks[i].p
		off := sc.clusterOff[p.Cluster.Index]
		for _, proc := range p.Procs {
			sc.qStart[off+proc+1]++
			items++
		}
	}
	for g := 0; g < total; g++ {
		sc.qStart[g+1] += sc.qStart[g]
	}
	sc.qItems = growSlice(sc.qItems, items)
	sc.qCur = growSlice(sc.qCur, total)
	copy(sc.qCur, sc.qStart[:total])
	for i := range sc.tasks {
		p := sc.tasks[i].p
		off := sc.clusterOff[p.Cluster.Index]
		for _, proc := range p.Procs {
			g := off + proc
			sc.qItems[sc.qCur[g]] = i
			sc.qCur[g]++
		}
	}

	// Order each bucket by (mapped start, placement index). The fill
	// left buckets index-sorted and the mapper books processors in
	// near-time order, so insertion sort is close to linear; the key is
	// a strict total order (indices are distinct), so the result is the
	// unique sorted sequence.
	tasks := sc.tasks
	for g := 0; g < total; g++ {
		q := sc.qItems[sc.qStart[g]:sc.qStart[g+1]]
		for i := 1; i < len(q); i++ {
			for j := i; j > 0; j-- {
				a, b := q[j-1], q[j]
				if tasks[a].p.Start < tasks[b].p.Start ||
					(tasks[a].p.Start == tasks[b].p.Start && a < b) {
					break
				}
				q[j-1], q[j] = q[j], q[j-1]
			}
		}
	}

	// Adjacent queue pairs become release-dependences, gathered as CSR
	// over the predecessor task.
	nt := len(tasks)
	sc.succStart = growSlice(sc.succStart, nt+1)
	for i := range sc.succStart {
		sc.succStart[i] = 0
	}
	nSucc := 0
	for g := 0; g < total; g++ {
		q := sc.qItems[sc.qStart[g]:sc.qStart[g+1]]
		for i := 1; i < len(q); i++ {
			sc.succStart[q[i-1]+1]++
			tasks[q[i]].procs++
			nSucc++
		}
	}
	for i := 0; i < nt; i++ {
		sc.succStart[i+1] += sc.succStart[i]
	}
	sc.succs = growSlice(sc.succs, nSucc)
	sc.succCur = growSlice(sc.succCur, nt)
	copy(sc.succCur, sc.succStart[:nt])
	for g := 0; g < total; g++ {
		q := sc.qItems[sc.qStart[g]:sc.qStart[g+1]]
		for i := 1; i < len(q); i++ {
			from := q[i-1]
			sc.succs[sc.succCur[from]] = q[i]
			sc.succCur[from]++
		}
	}
}

// buildFlows gathers the input flows — one per DAG edge, started when the
// producer finishes — as CSR over the producer's placement index, in DAG
// edge order.
func (sc *Scratch) buildFlows(s *mapping.Schedule) {
	nt := len(sc.tasks)
	sc.flowStart = growSlice(sc.flowStart, nt+1)
	for i := range sc.flowStart {
		sc.flowStart[i] = 0
	}
	edges := sc.edges[:0]
	for _, app := range s.Apps {
		for _, e := range app.Graph.Edges {
			from, to := s.PlacementOf(e.From), s.PlacementOf(e.To)
			if from == nil || to == nil {
				panic(fmt.Sprintf("simexec: edge %q->%q not fully placed", e.From.Name, e.To.Name))
			}
			sc.tasks[to.Index].flows++
			sc.flowStart[from.Index+1]++
			edges = append(edges, flowEdge{from.Index, to.Index, e.Bytes})
		}
	}
	sc.edges = edges
	for i := 0; i < nt; i++ {
		sc.flowStart[i+1] += sc.flowStart[i]
	}
	sc.flowTo = growSlice(sc.flowTo, len(edges))
	sc.flowBytes = growSlice(sc.flowBytes, len(edges))
	sc.flowCur = growSlice(sc.flowCur, nt)
	copy(sc.flowCur, sc.flowStart[:nt])
	for _, e := range edges {
		k := sc.flowCur[e.from]
		sc.flowTo[k] = e.to
		sc.flowBytes[k] = e.bytes
		sc.flowCur[e.from] = k + 1
	}
}

// finishTask completes task i: release the processor successors, then
// start the outgoing redistributions (the order the pre-scratch
// implementation used, preserved for event-sequence determinism).
func (sc *Scratch) finishTask(i int) {
	et := &sc.tasks[i]
	et.done = true
	et.end = sc.eng.Now()
	for _, j := range sc.succs[sc.succStart[i]:sc.succStart[i+1]] {
		sc.tasks[j].procs--
		sc.tryStart(j)
	}
	pf := sc.sched.Platform
	for k := sc.flowStart[i]; k < sc.flowStart[i+1]; k++ {
		to := sc.flowTo[k]
		route := pf.Route(et.p.Cluster, sc.tasks[to].p.Cluster)
		sc.net.Start(route, sc.flowBytes[k], sc.arriveFns[to])
	}
}

// tryStart begins task i once all input flows have arrived and all shared
// processors have been released.
func (sc *Scratch) tryStart(i int) {
	et := &sc.tasks[i]
	if et.start >= 0 || et.flows > 0 || et.procs > 0 {
		return
	}
	et.start = sc.eng.Now()
	dur := cost.TaskTime(et.p.Task, et.p.Cluster.Speed, len(et.p.Procs))
	sc.eng.After(dur, sc.computeFns[i])
}

// growSlice resizes s to length n, reusing capacity when possible. The
// returned slice's contents are unspecified; callers overwrite them.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
