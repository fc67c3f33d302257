package scenario

// Cross-strategy metamorphic tests: exact equivalences the strategy
// definitions imply (Eq. 1–2 degenerate cases) and monotonicity of the
// best achievable makespan under added resources, checked over a
// deterministic scenario sample. Everything here is bit-exact or holds on
// the pinned sample forever, so failures always mean a real regression.

import (
	"math/rand"
	"testing"

	"ptgsched/internal/core"
	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/events"
	"ptgsched/internal/online"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
)

// batch draws a deterministic PTG combination.
func batch(t *testing.T, fam daggen.Family, n int, seed int64) []*dag.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	graphs := make([]*dag.Graph, n)
	for i := range graphs {
		graphs[i] = daggen.Generate(fam, r)
	}
	return graphs
}

// makespans schedules the batch under strat and returns per-app simulated
// makespans plus the global one.
func makespans(pf *platform.Platform, graphs []*dag.Graph, strat strategy.Strategy) (app []float64, global float64) {
	res := core.New(pf).Schedule(graphs, strat)
	return res.Exec.AppMakespans, res.GlobalMakespan()
}

// sameSchedules asserts two strategies produce bit-identical makespans on
// the same batch.
func sameSchedules(t *testing.T, pf *platform.Platform, graphs []*dag.Graph, a, b strategy.Strategy) {
	t.Helper()
	appA, globalA := makespans(pf, graphs, a)
	appB, globalB := makespans(pf, graphs, b)
	if globalA != globalB {
		t.Fatalf("%s and %s global makespans differ: %g vs %g", a, b, globalA, globalB)
	}
	for i := range appA {
		if appA[i] != appB[i] {
			t.Fatalf("%s and %s app %d makespans differ: %g vs %g", a, b, i, appA[i], appB[i])
		}
	}
}

// TestWPSDegeneratesToPSAndES: WPS with µ=0 is PS (Eq. 2 collapses to
// Eq. 1) and WPS with µ=1 is ES, bit-identically, for every characteristic
// and family.
func TestWPSDegeneratesToPSAndES(t *testing.T) {
	chars := []strategy.Characteristic{strategy.CriticalPath, strategy.Width, strategy.Work}
	for _, fam := range []daggen.Family{daggen.FamilyRandom, daggen.FamilyFFT, daggen.FamilyStrassen} {
		graphs := batch(t, fam, 4, 101)
		pf := platform.Rennes()
		for _, c := range chars {
			sameSchedules(t, pf, graphs, strategy.WPS(c, 0), strategy.PS(c))
			sameSchedules(t, pf, graphs, strategy.WPS(c, 1), strategy.ES())
		}
	}
}

// TestStrassenWidthStrategiesCoincideWithES: every Strassen PTG has the
// same maximal width, so width-proportional shares are equal shares (the
// reason Fig. 5 drops them).
func TestStrassenWidthStrategiesCoincideWithES(t *testing.T) {
	for _, seed := range []int64{7, 19, 23} {
		graphs := batch(t, daggen.FamilyStrassen, 5, seed)
		for _, pf := range platform.Grid5000Sites() {
			sameSchedules(t, pf, graphs, strategy.PS(strategy.Width), strategy.ES())
			sameSchedules(t, pf, graphs, strategy.WPS(strategy.Width, 0.5), strategy.ES())
		}
	}
}

// TestSingleApplicationStrategiesCoincide: with one application every
// strategy yields β=1, so all eight registered strategies schedule it
// bit-identically.
func TestSingleApplicationStrategiesCoincide(t *testing.T) {
	for _, fam := range []daggen.Family{daggen.FamilyRandom, daggen.FamilyFFT, daggen.FamilyStrassen} {
		graphs := batch(t, fam, 1, 31)
		pf := platform.Sophia()
		ref, _ := makespans(pf, graphs, strategy.S())
		for _, name := range strategy.Names() {
			strat, err := strategy.ByName(name, -1, fam)
			if err != nil {
				t.Fatal(err)
			}
			app, _ := makespans(pf, graphs, strat)
			if app[0] != ref[0] {
				t.Fatalf("family %s: %s makespan %g differs from S %g on a single app",
					fam, name, app[0], ref[0])
			}
		}
	}
}

// bestMakespan returns the best global makespan any registered strategy
// achieves on the batch.
func bestMakespan(t *testing.T, pf *platform.Platform, graphs []*dag.Graph, fam daggen.Family) float64 {
	t.Helper()
	best := 0.0
	for i, name := range strategy.Names() {
		strat, err := strategy.ByName(name, -1, fam)
		if err != nil {
			t.Fatal(err)
		}
		_, g := makespans(pf, graphs, strat)
		if i == 0 || g < best {
			best = g
		}
	}
	return best
}

// TestAddingClusterNeverWorsensBestMakespan: growing the platform by one
// cluster must not worsen the best strategy's makespan on the same
// deterministic scenario sample. (List-scheduling anomalies could in
// principle hurt individual strategies; the invariant is asserted for the
// best over the registered set, on a pinned sample, so it is stable.)
func TestAddingClusterNeverWorsensBestMakespan(t *testing.T) {
	base := []platform.ClusterSpec{
		{Name: "c0", Procs: 32, Speed: 3.5},
		{Name: "c1", Procs: 16, Speed: 4.2},
	}
	grown := append(append([]platform.ClusterSpec{}, base...),
		platform.ClusterSpec{Name: "c2", Procs: 24, Speed: 3.8})

	const tol = 1e-9
	for _, fam := range []daggen.Family{daggen.FamilyRandom, daggen.FamilyFFT, daggen.FamilyStrassen} {
		for _, seed := range []int64{1, 2, 3} {
			for _, n := range []int{2, 4} {
				graphs := batch(t, fam, n, seed)
				small := bestMakespan(t, platform.New("small", true, base...), graphs, fam)
				big := bestMakespan(t, platform.New("big", true, grown...), graphs, fam)
				if big > small*(1+tol) {
					t.Errorf("family %s seed %d n=%d: adding a cluster worsened best makespan %g → %g",
						fam, seed, n, small, big)
				}
			}
		}
	}
}

// onlineBestMakespan runs the batch as a concurrent burst through the
// online engine under every registered strategy and returns the best
// global makespan.
func onlineBestMakespan(t *testing.T, pf *platform.Platform, graphs []*dag.Graph, fam daggen.Family, tl events.Timeline, policy online.Policy) float64 {
	t.Helper()
	arrivals := make([]online.Arrival, len(graphs))
	for i, g := range graphs {
		arrivals[i] = online.Arrival{Graph: g}
	}
	best := 0.0
	for i, name := range strategy.Names() {
		strat, err := strategy.ByName(name, -1, fam)
		if err != nil {
			t.Fatal(err)
		}
		res := online.Schedule(pf, arrivals, online.Options{Strategy: strat, Timeline: tl, Policy: policy})
		if i == 0 || res.Makespan < best {
			best = res.Makespan
		}
	}
	return best
}

// TestInjectingFailureNeverImprovesBestMakespan: the dual of the
// added-cluster monotonicity test — taking a cluster away for a window
// (killing its in-flight work) strictly cannot improve the best
// strategy's makespan on the same deterministic scenario sample, under
// either rescheduling policy. Failure instants are placed at fractions of
// the failure-free best makespan so the outage always lands mid-run.
func TestInjectingFailureNeverImprovesBestMakespan(t *testing.T) {
	const tol = 1e-9
	pf := platform.Rennes()
	policies := []online.Policy{online.Restart, online.Checkpoint}
	for _, fam := range []daggen.Family{daggen.FamilyRandom, daggen.FamilyStrassen} {
		for _, seed := range []int64{1, 2} {
			graphs := batch(t, fam, 3, seed)
			baseline := onlineBestMakespan(t, pf, graphs, fam, nil, online.Restart)
			if baseline <= 0 {
				t.Fatalf("family %s seed %d: degenerate baseline makespan %g", fam, seed, baseline)
			}
			for _, frac := range []float64{0.3, 0.7} {
				failAt := baseline * frac
				tl := events.Timeline{
					{At: failAt, Kind: events.ClusterDown, Cluster: 0},
					{At: failAt + baseline*0.25, Kind: events.ClusterUp, Cluster: 0},
				}
				tl.Sort()
				for _, policy := range policies {
					failed := onlineBestMakespan(t, pf, graphs, fam, tl, policy)
					if failed < baseline*(1-tol) {
						t.Errorf("family %s seed %d frac %g policy %s: failure improved best makespan %g → %g",
							fam, seed, frac, policy, baseline, failed)
					}
				}
			}
		}
	}
}

// TestFasterProcessorsNeverWorsenBestMakespan: doubling every cluster's
// speed must not worsen the best strategy's makespan on the pinned sample
// (computation halves, redistribution costs stay).
func TestFasterProcessorsNeverWorsenBestMakespan(t *testing.T) {
	slow := []platform.ClusterSpec{
		{Name: "c0", Procs: 32, Speed: 3.5},
		{Name: "c1", Procs: 16, Speed: 4.2},
	}
	fast := make([]platform.ClusterSpec, len(slow))
	for i, c := range slow {
		c.Speed *= 2
		fast[i] = c
	}

	const tol = 1e-9
	for _, fam := range []daggen.Family{daggen.FamilyRandom, daggen.FamilyStrassen} {
		for _, seed := range []int64{4, 5} {
			graphs := batch(t, fam, 3, seed)
			s := bestMakespan(t, platform.New("slow", true, slow...), graphs, fam)
			f := bestMakespan(t, platform.New("fast", true, fast...), graphs, fam)
			if f > s*(1+tol) {
				t.Errorf("family %s seed %d: doubling speeds worsened best makespan %g → %g",
					fam, seed, s, f)
			}
		}
	}
}
