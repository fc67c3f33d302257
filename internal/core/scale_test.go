package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ptgsched/internal/core"
	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/experiment"
	"ptgsched/internal/platform"
	"ptgsched/internal/sim"
)

// TestScheduleCommutesWithUnitScale is the scale metamorphic relation:
// multiplying every task's sequential work, every edge's volume and every
// link's latency by a power of two k scales every time of the schedule by
// k and changes no decision, bit for bit. β, every allocation, and every
// placement's cluster, processors and mapper times × k must match with ==,
// and so must the simulated makespans × k for k = 2⁻¹⁰ and 2⁻²⁰. For
// k = 2¹⁰ and 2²⁰ the simulated makespans are left out: the simulator's
// absolute byte snap (internal/sim/flow.go) moves them by an ulp on some
// batches. It runs over TestScheduleCommutesWithBatchOrder's grid (880
// batches per k; 1 rep under -short).
func TestScheduleCommutesWithUnitScale(t *testing.T) {
	reps := 2
	if testing.Short() {
		reps = 1
	}
	scales := []struct {
		k         float64
		makespans bool
	}{
		{math.Ldexp(1, -10), true},
		{math.Ldexp(1, -20), true},
		{math.Ldexp(1, 10), false},
		{math.Ldexp(1, 20), false},
	}
	compared := 0
	for _, family := range []daggen.Family{daggen.FamilyRandom, daggen.FamilyFFT, daggen.FamilyStrassen} {
		cfg := experiment.Config{Family: family, Seed: 42, Reps: reps}.Defaults()
		for point, n := range cfg.NPTGs {
			for rep := 0; rep < reps; rep++ {
				seed := experiment.RunSeed(cfg.Seed, point, rep)
				graphs := generateBatch(family, seed, n, 1)
				for _, pf := range cfg.Platforms {
					sched := core.New(pf)
					scaled := make([]*core.Scheduler, len(scales))
					scaledGraphs := make([][]*dag.Graph, len(scales))
					for s, sc := range scales {
						scaled[s] = core.New(scaledSite(t, pf.Name, sc.k))
						scaledGraphs[s] = generateBatch(family, seed, n, sc.k)
					}
					for _, strat := range cfg.Strategies {
						want := sched.Schedule(graphs, strat)
						for s, sc := range scales {
							compared++
							batch := fmt.Sprintf("k=%g, %s, %d PTGs, rep %d, %s, %s", sc.k, family, n, rep, pf.Name, strat.Name())
							requireScaled(t, batch, sc.k, sc.makespans, want, scaled[s].Schedule(scaledGraphs[s], strat))
						}
					}
				}
			}
		}
	}
	t.Logf("%d scaled batches compared", compared)
}

// requireScaled compares a batch's schedule with the schedule of its
// copy scaled by k: β, allocations and placements always, the simulated
// makespans when makespans is set.
func requireScaled(t *testing.T, batch string, k float64, makespans bool, want, got *core.Result) {
	t.Helper()
	if !slices.Equal(want.Betas, got.Betas) {
		t.Errorf("%s: β %v, scaled %v", batch, want.Betas, got.Betas)
	}
	for i, a := range want.Allocations {
		if !slices.Equal(a.Procs, got.Allocations[i].Procs) {
			t.Errorf("%s: graph %d allocated %v, scaled %v", batch, i, a.Procs, got.Allocations[i].Procs)
		}
		if w, g := want.Exec.AppMakespans[i]*k, got.Exec.AppMakespans[i]; makespans && w != g {
			t.Errorf("%s: graph %d makespan × k %v, scaled %v", batch, i, w, g)
		}
	}
	wp, gp := want.Schedule.Placements, got.Schedule.Placements
	if len(wp) != len(gp) {
		t.Errorf("%s: %d placements, scaled %d", batch, len(wp), len(gp))
		return
	}
	for j, w := range wp {
		g := gp[j]
		if w.App != g.App || w.Task.ID != g.Task.ID || w.Cluster.Index != g.Cluster.Index ||
			!slices.Equal(w.Procs, g.Procs) || w.Start*k != g.Start || w.End*k != g.End {
			t.Errorf("%s: placement %d is %v, [%v, %v] × k; scaled %v, [%v, %v]",
				batch, j, w, w.Start*k, w.End*k, g, g.Start, g.End)
		}
	}
}

// generateBatch draws the n graphs of one batch from seed, with every
// task's sequential work and every edge's volume multiplied by k.
func generateBatch(family daggen.Family, seed int64, n int, k float64) []*dag.Graph {
	r := rand.New(rand.NewSource(seed))
	graphs := make([]*dag.Graph, n)
	for i := range graphs {
		g := daggen.Generate(family, r)
		for _, task := range g.Tasks {
			task.SeqGFlop *= k
		}
		for _, e := range g.Edges {
			e.Bytes *= k
		}
		graphs[i] = g
	}
	return graphs
}

// scaledSite returns a fresh copy of the named site with every link's
// latency multiplied by k.
func scaledSite(t *testing.T, name string, k float64) *platform.Platform {
	t.Helper()
	pf, err := platform.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*sim.Link]bool{}
	scale := func(l *sim.Link) {
		if l != nil && !seen[l] {
			seen[l] = true
			l.Latency *= k
		}
	}
	scale(pf.Backbone)
	for _, c := range pf.Clusters {
		scale(c.Uplink)
		scale(c.Intra)
	}
	return pf
}
