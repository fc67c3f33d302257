package online

import (
	"math/rand"
	"slices"
	"testing"

	"ptgsched/internal/alloc"
	"ptgsched/internal/core"
	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/experiment"
	"ptgsched/internal/mapping"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
)

// release0Diff schedules one batch offline (core: SCRAP-MAX, the ready-task
// mapper) and online with every application released at 0, no timeline, the
// procedure set to SCRAP-MAX explicitly and no rebalance on completion (a
// completion rebalance re-allocates, which offline never does), and
// describes the first difference: a task's allocation in the reference
// cluster, or its placement's cluster, processors, start or end. "" means
// §8's driver makes §5's schedule.
func release0Diff(pf *platform.Platform, graphs []*dag.Graph, strat strategy.Strategy, noPacking bool) string {
	offline := core.New(pf)
	offline.MapOptions.NoPacking = noPacking
	want := offline.Schedule(graphs, strat)

	arrivals := make([]Arrival, len(graphs))
	for i, g := range graphs {
		arrivals[i] = Arrival{Graph: g}
	}
	s := newScheduler(NewScratch(), pf, arrivals, Options{
		Strategy:                strat,
		Procedure:               alloc.SCRAPMAX,
		NoPacking:               noPacking,
		NoRebalanceOnCompletion: true,
	})
	s.run()
	s.finish()

	for app, a := range want.Allocations {
		if !slices.Equal(s.allocs[app].Procs, a.Procs) {
			return "application " + graphs[app].Name + ": online allocates differently from offline"
		}
	}
	if len(s.result.Placements) != len(want.Schedule.Placements) {
		return "placement counts differ"
	}
	placed := make(map[*dag.Task]*mapping.Placement, len(s.result.Placements))
	for _, p := range s.result.Placements {
		placed[p.Task] = p
	}
	for _, q := range want.Schedule.Placements {
		p := placed[q.Task]
		if p == nil || p.App != q.App || p.Cluster != q.Cluster || !slices.Equal(p.Procs, q.Procs) ||
			p.Start != q.Start || p.End != q.End {
			return "task " + q.Task.Name + " of application " + graphs[q.App].Name + ": online and offline place it differently"
		}
	}
	return ""
}

// The measurement behind the shared placement step (ROADMAP 8), kept: over a
// reduced Fig. 3/4/5 grid — each family's paper strategies on the four sites,
// 2 to 10 PTGs per batch — the offline pipeline and the online driver at
// release 0 allocate and place every task alike. The full grids (25 reps,
// 11,000 batches) had 0 batches differ when this was written. A differing
// batch is a finding about the paper's §8 extending its §5, to be reported
// with the batch — not something to fix by moving either mapper's tie rule.
func TestOfflineEqualsOnlineAtRelease0(t *testing.T) {
	reps := 3
	if testing.Short() {
		reps = 1
	}
	compared, differing := 0, 0
	for _, family := range []daggen.Family{daggen.FamilyRandom, daggen.FamilyFFT, daggen.FamilyStrassen} {
		cfg := experiment.Config{Family: family, Seed: 42, Reps: reps}.Defaults()
		for point, n := range cfg.NPTGs {
			for rep := 0; rep < reps; rep++ {
				r := rand.New(rand.NewSource(experiment.RunSeed(cfg.Seed, point, rep)))
				graphs := make([]*dag.Graph, n)
				for i := range graphs {
					graphs[i] = daggen.Generate(family, r)
				}
				for _, pf := range cfg.Platforms {
					for _, strat := range cfg.Strategies {
						compared++
						if diff := release0Diff(pf, graphs, strat, false); diff != "" {
							differing++
							t.Errorf("%s, %d PTGs, rep %d, %s, %s: %s", family, n, rep, pf.Name, strat.Name(), diff)
						}
					}
				}
			}
		}
	}
	t.Logf("%d batches compared, %d differ", compared, differing)
}

func FuzzOfflineEqualsOnlineAtRelease0(f *testing.F) {
	f.Add(int64(42), uint8(2), uint8(0), uint8(0), uint8(0), true)
	f.Add(int64(7), uint8(10), uint8(1), uint8(3), uint8(5), false)
	f.Add(int64(301), uint8(6), uint8(2), uint8(2), uint8(7), true)
	sites := platform.Grid5000Sites()
	f.Fuzz(func(t *testing.T, seed int64, n, family, site, strat uint8, packing bool) {
		fam := daggen.Family(family % 3)
		r := rand.New(rand.NewSource(seed))
		graphs := make([]*dag.Graph, 1+n%10)
		for i := range graphs {
			graphs[i] = daggen.Generate(fam, r)
		}
		strategies := strategy.PaperSet(fam)
		pf := sites[int(site)%len(sites)]
		s := strategies[int(strat)%len(strategies)]
		if diff := release0Diff(pf, graphs, s, !packing); diff != "" {
			t.Fatalf("seed %d, %d %s PTGs, %s, %s, packing=%v: %s", seed, len(graphs), fam, pf.Name, s.Name(), packing, diff)
		}
	})
}
