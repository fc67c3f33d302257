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

// BenchmarkScheduleDynamic is the profile target for the online driver: one
// campaign_dynamic-like run per iteration — 8 Poisson arrivals (rate 0.05)
// of 20-task PTGs on rennes under a speed change and a failure with its
// repair, ES shares — on one carried Scratch, as a sweep worker runs them.
// After the first iteration every allocation is a full replay of its trace,
// so what ns/op and allocs/op show is the driver: event queue, rebalance
// bookkeeping, rebuildAvail and commit (commits/op of them).
func BenchmarkScheduleDynamic(b *testing.B) {
	r := rand.New(rand.NewSource(301))
	arrivals := make([]Arrival, 8)
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
	// The failure hits the cluster of the run's middle placement halfway
	// through it, so there is in-flight work to kill.
	timeline := events.Timeline{{At: 40, Kind: events.SpeedChange, Cluster: 1, Factor: 0.5}}
	opts := Options{Strategy: strategy.ES(), Timeline: timeline, Policy: CheckpointPolicy()}
	undisturbed := Schedule(pf, arrivals, opts).Placements
	hit := undisturbed[len(undisturbed)/2]
	failAt := (hit.Start + hit.End) / 2
	opts.Timeline = append(timeline,
		events.Event{At: failAt, Kind: events.ClusterDown, Cluster: hit.Cluster.Index},
		events.Event{At: failAt + 40, Kind: events.ClusterUp, Cluster: hit.Cluster.Index})
	opts.Timeline.Sort()

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
