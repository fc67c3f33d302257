package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"ptgsched/internal/core"
	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/experiment"
)

// TestScheduleCommutesWithBatchOrder is the batch-order metamorphic
// relation: reversing the PTGs of a batch changes no graph's allocation and
// no graph's simulated makespan, paired by graph, bit for bit. It runs over
// the Fig. 3/4/5 grid — each family's paper strategies on the four sites,
// 2 to 10 PTGs per batch, seed 42 — with 2 reps (880 batches; 1 rep under
// -short). A differing batch is a finding about an order dependence in the
// strategy, allocation, mapping or simulation step, reported with the batch.
func TestScheduleCommutesWithBatchOrder(t *testing.T) {
	reps := 2
	if testing.Short() {
		reps = 1
	}
	compared := 0
	for _, family := range []daggen.Family{daggen.FamilyRandom, daggen.FamilyFFT, daggen.FamilyStrassen} {
		cfg := experiment.Config{Family: family, Seed: 42, Reps: reps}.Defaults()
		for point, n := range cfg.NPTGs {
			for rep := 0; rep < reps; rep++ {
				r := rand.New(rand.NewSource(experiment.RunSeed(cfg.Seed, point, rep)))
				graphs := make([]*dag.Graph, n)
				for i := range graphs {
					graphs[i] = daggen.Generate(family, r)
				}
				reversed := slices.Clone(graphs)
				slices.Reverse(reversed)
				for _, pf := range cfg.Platforms {
					sched := core.New(pf)
					for _, strat := range cfg.Strategies {
						compared++
						fwd, rev := sched.Schedule(graphs, strat), sched.Schedule(reversed, strat)
						for i := range graphs {
							j := n - 1 - i
							if !slices.Equal(fwd.Allocations[i].Procs, rev.Allocations[j].Procs) {
								t.Errorf("%s, %d PTGs, rep %d, %s, %s: graph %d allocated %v in order, %v reversed",
									family, n, rep, pf.Name, strat.Name(), i, fwd.Allocations[i].Procs, rev.Allocations[j].Procs)
							}
							if a, b := fwd.Exec.AppMakespans[i], rev.Exec.AppMakespans[j]; a != b {
								t.Errorf("%s, %d PTGs, rep %d, %s, %s: graph %d makespan %v in order, %v reversed",
									family, n, rep, pf.Name, strat.Name(), i, a, b)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d batches compared", compared)
}
