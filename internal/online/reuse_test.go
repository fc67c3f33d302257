package online

import (
	"math/rand"
	"reflect"
	"testing"

	"ptgsched/internal/daggen"
	"ptgsched/internal/events"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
)

// runBoth schedules the same arrivals twice — keeping allocations across
// rebalances whose (reference, β) did not change, and recomputing all of
// them at every rebalance — and requires bit-identical outcomes.
func runBoth(t *testing.T, what string, pf *platform.Platform, arrivals []Arrival, opts Options) *Result {
	t.Helper()
	kept := Schedule(pf, arrivals, opts)
	s := newScheduler(pf, arrivals, opts)
	s.recompute = true
	s.run()
	s.finish()
	fresh := s.result

	if len(kept.Placements) != len(fresh.Placements) {
		t.Fatalf("%s: %d placements keeping allocations, %d recomputing", what, len(kept.Placements), len(fresh.Placements))
	}
	for i, p := range kept.Placements {
		q := fresh.Placements[i]
		if p.App != q.App || p.Task != q.Task || p.Cluster != q.Cluster ||
			p.Start != q.Start || p.End != q.End || !reflect.DeepEqual(p.Procs, q.Procs) {
			t.Fatalf("%s: placement %d differs:\n  %v\n  %v", what, i, p, q)
		}
	}
	// Everything else in a Result is plain values.
	k, f := *kept, *fresh
	k.Placements, f.Placements = nil, nil
	if !reflect.DeepEqual(k, f) {
		t.Fatalf("%s: results differ:\n  %+v\n  %+v", what, k, f)
	}
	return kept
}

func TestKeptAllocationsChangeNothing(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	arrivals := make([]Arrival, 6)
	at := 0.0
	for i := range arrivals {
		arrivals[i] = Arrival{Graph: daggen.Generate(daggen.FamilyRandom, r), At: at}
		at += 5 + 20*r.Float64()
	}
	pf := platform.Rennes()

	// Selfish: β is 1 at every rebalance, so after its arrival an
	// application's allocation is never computed again.
	res := runBoth(t, "S static", pf, arrivals, Options{Strategy: strategy.S()})
	if res.Rebalances < 3 {
		t.Fatalf("only %d rebalances: the run does not exercise reuse", res.Rebalances)
	}
	// Shares that move with the active set: kept only between rebalances
	// that leave an application's β where it was.
	runBoth(t, "ES static", pf, arrivals, Options{Strategy: strategy.ES()})
	runBoth(t, "WPS-work static", pf, arrivals, Options{Strategy: strategy.WPS(strategy.Work, 0.7)})

	// Failures and a speed change move the reference cluster under kept
	// allocations; a cancel and resubmit re-enters an application whose
	// allocation is still on record.
	timeline := events.Timeline{
		{At: 8, Kind: events.ClusterDown, Cluster: 0},
		{At: 30, Kind: events.SpeedChange, Cluster: 1, Factor: 0.5},
		{At: 45, Kind: events.Cancel, App: 1},
		{At: 60, Kind: events.ClusterUp, Cluster: 0},
		{At: 70, Kind: events.Resubmit, App: 1},
	}
	timeline.Sort()
	for _, policy := range []ReschedulePolicy{RestartPolicy(), CheckpointPolicy()} {
		for _, strat := range []strategy.Strategy{strategy.S(), strategy.ES()} {
			res := runBoth(t, "dynamic "+strat.Name()+" "+policy.Name(), pf, arrivals,
				Options{Strategy: strat, Timeline: timeline, Policy: policy})
			if res.EventsApplied != len(timeline) {
				t.Fatalf("%d of %d timeline events applied", res.EventsApplied, len(timeline))
			}
		}
	}
}
