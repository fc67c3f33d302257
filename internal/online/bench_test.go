package online

import (
	"math/rand"
	"testing"

	"ptgsched/internal/daggen"
	"ptgsched/internal/events"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
)

// countingMapper counts the calls of the driver's own commit.
type countingMapper struct {
	*scheduler
	commits int
}

func (c *countingMapper) rebuildAvail()         { c.scheduler.rebuildAvail() }
func (c *countingMapper) commit(ot *onlineTask) { c.commits++; c.scheduler.commit(ot) }

// dynamicShape draws a campaign_dynamic-like run from seed: n Poisson
// arrivals (rate 0.05) of 20-task PTGs on rennes, cluster 1 slowed to factor
// × its speed at speedAt, and a failure that hits the cluster of the
// placement at fraction hit of the undisturbed run's completion order
// halfway through it, repaired repairAfter seconds later, so there is
// in-flight work to kill. opts gives the strategy and the policy; the
// returned options carry the timeline.
func dynamicShape(seed int64, n int, opts Options, speedAt, factor, hit, repairAfter float64) (*platform.Platform, []Arrival, Options) {
	r := rand.New(rand.NewSource(seed))
	arrivals := make([]Arrival, n)
	at := 0.0
	for i := range arrivals {
		arrivals[i] = Arrival{Graph: daggen.Random(daggen.RandomConfig{
			Tasks:      20,
			Width:      0.5,
			Regularity: 0.8,
			Density:    0.8,
			Jump:       2,
		}, r), At: at}
		at += r.ExpFloat64() / 0.05
	}
	pf := platform.Rennes()
	timeline := events.Timeline{{At: speedAt, Kind: events.SpeedChange, Cluster: 1, Factor: factor}}
	opts.Timeline = timeline
	undisturbed := Schedule(pf, arrivals, opts).Placements
	struck := undisturbed[min(int(hit*float64(len(undisturbed))), len(undisturbed)-1)]
	failAt := (struck.Start + struck.End) / 2
	opts.Timeline = append(timeline,
		events.Event{At: failAt, Kind: events.ClusterDown, Cluster: struck.Cluster.Index},
		events.Event{At: failAt + repairAfter, Kind: events.ClusterUp, Cluster: struck.Cluster.Index})
	opts.Timeline.Sort()
	return pf, arrivals, opts
}

// benchShape is BenchmarkScheduleDynamic's run: 8 arrivals of seed 301
// under ES shares and Checkpoint, a halving at 40 s, and a failure in the
// middle of the run repaired 40 s later.
func benchShape() (*platform.Platform, []Arrival, Options) {
	return dynamicShape(301, 8, Options{Strategy: strategy.ES(), Policy: Checkpoint}, 40, 0.5, 0.5, 40)
}

// BenchmarkScheduleDynamic is the profile target for the online driver: one
// campaign_dynamic-like run per iteration (benchShape) on one carried
// Scratch, as a sweep worker runs them. After the first iteration every
// allocation is a full replay of its trace, so what ns/op and allocs/op
// show is the driver: event queue, rebalance bookkeeping, rebuildAvail and
// commit (commits/op of them).
func BenchmarkScheduleDynamic(b *testing.B) {
	pf, arrivals, opts := benchShape()
	sc := NewScratch()
	counted := &countingMapper{scheduler: newScheduler(sc, pf, arrivals, opts)}
	counted.sortMapper = counted
	counted.run()
	counted.finish()
	if counted.result.Reschedules == 0 {
		b.Fatal("the failure killed nothing: the run does not exercise rescheduling")
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := ScheduleWith(sc, pf, arrivals, opts); len(res.Placements) != len(counted.result.Placements) {
			b.Fatal("lost placements")
		}
	}
	b.ReportMetric(float64(counted.commits), "commits/op")
}
