package online

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ptgsched/internal/alloc"
	"ptgsched/internal/daggen"
	"ptgsched/internal/events"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
)

// sameRun requires two runs over the same arrivals to agree bit for bit:
// every placement field for field, and everything else a Result counts.
func sameRun(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if len(got.Placements) != len(want.Placements) {
		t.Fatalf("%s: %d placements, %d in the reference run", what, len(got.Placements), len(want.Placements))
	}
	for i, p := range got.Placements {
		q := want.Placements[i]
		if p.App != q.App || p.Task != q.Task || p.Cluster != q.Cluster ||
			math.Float64bits(p.Start) != math.Float64bits(q.Start) ||
			math.Float64bits(p.End) != math.Float64bits(q.End) || !slices.Equal(p.Procs, q.Procs) {
			t.Fatalf("%s: placement %d differs:\n  %v\n  %v", what, i, p, q)
		}
	}
	// Everything else in a Result is plain values.
	g, w := *got, *want
	g.Placements, w.Placements = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: results differ:\n  %+v\n  %+v", what, g, w)
	}
}

// recomputed runs the scheduler with plain alloc.Compute at every
// rebalance: no trace, no scratch carried from anywhere.
func recomputed(pf *platform.Platform, arrivals []Arrival, opts Options) *Result {
	s := newScheduler(NewScratch(), pf, arrivals, opts)
	s.recompute = true
	s.run()
	s.finish()
	return s.result
}

// runBoth schedules the same arrivals twice — allocating through traces,
// and recomputing every allocation at every rebalance — and requires
// bit-identical outcomes.
func runBoth(t *testing.T, what string, pf *platform.Platform, arrivals []Arrival, opts Options) *Result {
	t.Helper()
	traced := Schedule(pf, arrivals, opts)
	sameRun(t, what, traced, recomputed(pf, arrivals, opts))
	return traced
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

	// Selfish: β is 1 at every rebalance, so after its arrival every
	// allocation of an application is a full-length replay.
	res := runBoth(t, "S static", pf, arrivals, Options{Strategy: strategy.S()})
	if res.Rebalances < 3 {
		t.Fatalf("only %d rebalances: the run does not exercise reuse", res.Rebalances)
	}
	// Shares that move with the active set: replayed as far as the new
	// share decides the steps like the largest one seen.
	runBoth(t, "ES static", pf, arrivals, Options{Strategy: strategy.ES()})
	runBoth(t, "WPS-work static", pf, arrivals, Options{Strategy: strategy.WPS(strategy.Work, 0.7)})

	// Failures and a speed change move the reference cluster under the
	// traces; a cancel and resubmit re-enters an application whose traces
	// are still on record.
	timeline := events.Timeline{
		{At: 8, Kind: events.ClusterDown, Cluster: 0},
		{At: 30, Kind: events.SpeedChange, Cluster: 1, Factor: 0.5},
		{At: 45, Kind: events.Cancel, App: 1},
		{At: 60, Kind: events.ClusterUp, Cluster: 0},
		{At: 70, Kind: events.Resubmit, App: 1},
	}
	timeline.Sort()
	for _, policy := range []Policy{Restart, Checkpoint} {
		for _, strat := range []strategy.Strategy{strategy.S(), strategy.ES()} {
			res := runBoth(t, "dynamic "+strat.Name()+" "+policy.String(), pf, arrivals,
				Options{Strategy: strat, Timeline: timeline, Policy: policy})
			if res.EventsApplied != len(timeline) {
				t.Fatalf("%d of %d timeline events applied", res.EventsApplied, len(timeline))
			}
		}
	}
}

// timelineShapes are the dynamic fuzz corpus' timeline corners (scenario's
// fuzzTimeline): permanent failure, fail then recover, slow down then speed
// past the original, cancel, cancel and resubmit.
func timelineShapes(at float64, pf *platform.Platform, nApps int) map[string]events.Timeline {
	last := len(pf.Clusters) - 1
	shapes := map[string]events.Timeline{
		"none":      nil,
		"down":      {{At: at, Kind: events.ClusterDown, Cluster: last}},
		"down-up":   {{At: at, Kind: events.ClusterDown, Cluster: 0}, {At: at + 1 + at/2, Kind: events.ClusterUp, Cluster: 0}},
		"speed":     {{At: at, Kind: events.SpeedChange, Cluster: 0, Factor: 0.5}, {At: 2*at + 1, Kind: events.SpeedChange, Cluster: 0, Factor: 2}},
		"cancel":    {{At: at, Kind: events.Cancel, App: 0}},
		"resubmit":  {{At: at, Kind: events.Cancel, App: nApps - 1}, {At: at + 1 + at/4, Kind: events.Resubmit, App: nApps - 1}},
		"down-down": {{At: at, Kind: events.ClusterDown, Cluster: 0}, {At: at + 3, Kind: events.ClusterUp, Cluster: 0}, {At: at + 9, Kind: events.ClusterDown, Cluster: 0}, {At: at + 14, Kind: events.ClusterUp, Cluster: 0}},
	}
	for _, tl := range shapes {
		tl.Sort()
	}
	return shapes
}

// fourArrivals draws four PTGs of one family arriving 2 to 8 seconds apart.
func fourArrivals(seed int64, family daggen.Family) []Arrival {
	r := rand.New(rand.NewSource(seed))
	arrivals := make([]Arrival, 4)
	at := 0.0
	for i := range arrivals {
		arrivals[i] = Arrival{Graph: daggen.Generate(family, r), At: at}
		at += 2 + 6*r.Float64()
	}
	return arrivals
}

// A campaign point runs its strategies one after the other on one scratch,
// so each strategy's rebalances replay traces the earlier strategies and
// its own earlier rebalances left — across arrivals, completions and every
// platform event, under both procedures and both policies. Every run must
// equal the run that recomputes every allocation from nothing.
func TestTracedRunsMatchRecompute(t *testing.T) {
	sites := platform.Grid5000Sites()
	if testing.Short() {
		sites = sites[:1]
	}
	for si, pf := range sites {
		family := daggen.Family(si % 3)
		arrivals := fourArrivals(int64(500+si), family)
		for name, timeline := range timelineShapes(3+float64(si), pf, len(arrivals)) {
			for _, proc := range []alloc.Procedure{alloc.SCRAP, alloc.SCRAPMAX} {
				policy := []Policy{Restart, Checkpoint}[(si+int(proc))%2]
				sc := NewScratch()
				for _, strat := range strategy.PaperSet(family) {
					opts := Options{Strategy: strat, Procedure: proc, Timeline: timeline, Policy: policy}
					what := pf.Name + " " + name + " " + proc.String() + " " + strat.Name() + " " + policy.String()
					sameRun(t, what, ScheduleWith(sc, pf, arrivals, opts), recomputed(pf, arrivals, opts))
				}
				if sc.traces.Replayed+sc.traces.Repeated == 0 {
					t.Errorf("%s %s %v: no growth step was replayed and no allocation repeated", pf.Name, name, proc)
				}
				// A released scratch grows what a new one grows.
				sc.Release()
				opts := Options{Strategy: strategy.ES(), Procedure: proc, Timeline: timeline, Policy: policy}
				grown, fresh := sc.traces.Grown, NewScratch()
				ScheduleWith(sc, pf, arrivals, opts)
				ScheduleWith(fresh, pf, arrivals, opts)
				if got, want := sc.traces.Grown-grown, fresh.traces.Grown; got != want {
					t.Errorf("%s %s %v: %d steps grown on a released scratch, %d on a new one", pf.Name, name, proc, got, want)
				}
			}
		}
	}
}
