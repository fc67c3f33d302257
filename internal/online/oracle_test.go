package online

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"ptgsched/internal/alloc"
	"ptgsched/internal/cost"
	"ptgsched/internal/daggen"
	"ptgsched/internal/mapping"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
)

// sortOracle is the seed's online mapper, kept verbatim as the reference
// the sorted availability structure is compared against: availability is a
// plain times vector per cluster, and every commit copies and sorts each
// cluster's vector to read the q-th earliest time, then stable-sorts the
// winner's processor indices to pick the earliest-free ones. Only the
// receiver (o.avail, o.free and o.order for the scheduler's and the
// scratch's fields of old) and the event push differ from the seed's text.
type sortOracle struct {
	*scheduler
	// avail[k][i]: when processor i of cluster k frees up, considering
	// running and committed placements.
	avail [][]float64
	free  []float64 // one cluster's availability, sorted
	order []int     // one cluster's processors, earliest free first
}

// oracleRun schedules the arrivals with the seed's mapper in place of
// rebuildAvail and commit; everything else is the driver under test.
func oracleRun(pf *platform.Platform, arrivals []Arrival, opts Options) *Result {
	s := newScheduler(NewScratch(), pf, arrivals, opts)
	o := &sortOracle{scheduler: s, avail: make([][]float64, len(pf.Clusters))}
	for k, c := range pf.Clusters {
		o.avail[k] = make([]float64, c.Procs)
	}
	s.sortMapper = o
	s.run()
	s.finish()
	return s.result
}

// rebuildAvail recomputes processor availability from running and still-
// committed placements.
func (o *sortOracle) rebuildAvail() {
	s := o.scheduler
	for k := range o.avail {
		for i := range o.avail[k] {
			o.avail[k][i] = s.now
		}
	}
	for _, appTasks := range s.tasks {
		for _, ot := range appTasks {
			if ot.state != taskRunning && ot.state != taskCommitted {
				continue
			}
			p := ot.placement
			for _, i := range p.Procs {
				if p.End > o.avail[p.Cluster.Index][i] {
					o.avail[p.Cluster.Index][i] = p.End
				}
			}
		}
	}
}

// commit chooses the earliest-finish (cluster, width) for ot, honouring
// allocation packing, reserves the processors and schedules its completion.
func (o *sortOracle) commit(ot *onlineTask) {
	s := o.scheduler
	a := s.allocs[ot.app]
	dataReady := func(c *platform.Cluster) float64 {
		ready := s.now
		for _, e := range ot.task.In() {
			pred := s.tasks[ot.app][e.From.ID]
			at := pred.placement.End + s.pf.TransferTime(pred.placement.Cluster, c, e.Bytes)
			if at > ready {
				ready = at
			}
		}
		return ready
	}

	type cand struct {
		cluster *platform.Cluster
		procs   int
		start   float64
		end     float64
	}
	var best cand
	found := false
	for _, c := range s.pf.Clusters {
		if s.downC[c.Index] {
			continue
		}
		speed := s.speed[c.Index]
		want := alloc.TranslateTo(a.Procs[ot.task.ID], a.Ref, c.Procs, speed)
		free := append(o.free[:0], o.avail[c.Index]...)
		o.free = free
		slices.Sort(free)
		ready := dataReady(c)
		eval := func(q int) (float64, float64) {
			start := math.Max(ready, free[q-1])
			return start, start + cost.TaskTime(ot.task, speed, q)
		}
		start, end := eval(want)
		cc := cand{cluster: c, procs: want, start: start, end: end}
		if !s.opts.NoPacking {
			for q := want - 1; q >= 1; q-- {
				st, en := eval(q)
				if st >= cc.start {
					break
				}
				if en <= cc.end {
					cc = cand{cluster: c, procs: q, start: st, end: en}
				}
			}
		}
		if !found || cc.end < best.end ||
			(cc.end == best.end && cc.start < best.start) ||
			(cc.end == best.end && cc.start == best.start && cc.procs < best.procs) {
			best = cc
			found = true
		}
	}
	if !found {
		if s.dyn {
			// Every cluster is down: the task stays ready and is
			// recommitted at the next recovery's dispatch.
			return
		}
		panic("online: no cluster available")
	}

	// The earliest-free processors of the winner, the lowest index first
	// among equally free ones.
	avail := o.avail[best.cluster.Index]
	order := o.order[:0]
	for i := range avail {
		order = append(order, i)
	}
	o.order = order
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(avail[i], avail[j]) })
	procs := slices.Clone(order[:best.procs])
	slices.Sort(procs)
	for _, i := range procs {
		avail[i] = best.end
	}

	ot.placement = &mapping.Placement{
		App:     ot.app,
		Task:    ot.task,
		Cluster: best.cluster,
		Procs:   procs,
		Start:   best.start,
		End:     best.end,
	}
	if best.start <= s.now {
		ot.state = taskRunning
	} else {
		ot.state = taskCommitted
	}
	s.events.Push(event{at: best.end, kind: evCompletion, ot: ot, placement: ot.placement})
}

// Every placement of a run on the sorted availability structure — cluster,
// processor set, start, end — is the placement the seed's sort-per-task
// mapper makes: across the dynamic fuzz corpus' timeline shapes and a double
// failure, every site, both policies, packing on and off, both procedures.
// Availabilities go stale below the clock between rebalances; the oracle
// carries the same stale values, so their order is compared too.
func TestCommitMatchesSortOracle(t *testing.T) {
	sites := platform.Grid5000Sites()
	if testing.Short() {
		sites = sites[:1]
	}
	for si, pf := range sites {
		family := daggen.Family(si % 3)
		arrivals := fourArrivals(int64(900+si), family)
		strategies := strategy.PaperSet(family)
		for name, timeline := range timelineShapes(3+float64(si), pf, len(arrivals)) {
			n := 0 // a shape's eight combinations walk the strategy set
			for _, policy := range []Policy{Restart, Checkpoint} {
				for _, noPacking := range []bool{false, true} {
					for _, proc := range []alloc.Procedure{alloc.SCRAP, alloc.SCRAPMAX} {
						opts := Options{
							Strategy:  strategies[n%len(strategies)],
							Procedure: proc,
							NoPacking: noPacking,
							Timeline:  timeline,
							Policy:    policy,
						}
						n++
						what := fmt.Sprintf("%s %s %s %v packing=%v %s", pf.Name, name, opts.Strategy.Name(), proc, !noPacking, policy)
						sameRun(t, what, Schedule(pf, arrivals, opts), oracleRun(pf, arrivals, opts))
					}
				}
			}
		}
	}
}
