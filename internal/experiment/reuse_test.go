package experiment

import (
	"math/rand"
	"reflect"
	"testing"

	"ptgsched/internal/core"
	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/platform"
)

// One scratch carried through every run of a campaign — its remembered
// allocations warm within a run, dropped between runs — measures what a
// fresh scratch per run measures.
func TestRunOneWithMatchesRunOne(t *testing.T) {
	for _, family := range []daggen.Family{daggen.FamilyRandom, daggen.FamilyFFT, daggen.FamilyStrassen} {
		cfg := Config{
			Family:    family,
			NPTGs:     []int{2, 5},
			Reps:      2,
			Platforms: []*platform.Platform{platform.Lille(), platform.Sophia()},
			Seed:      23,
		}.Defaults()
		sc := core.NewScratch()
		for point := range cfg.NPTGs {
			for rep := 0; rep < cfg.Reps; rep++ {
				for pfIdx := range cfg.Platforms {
					got, want := RunOneWith(cfg, point, rep, pfIdx, sc), RunOneWith(cfg, point, rep, pfIdx, core.NewScratch())
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v point %d rep %d platform %d: on a shared scratch\n%+v\nfresh\n%+v",
							family, point, rep, pfIdx, got, want)
					}
				}
			}
		}
	}
}

// The remembered allocations do not outlive a run. Every run on one scratch
// regenerates into the same pooled graph objects; a generator that gives
// them the same shapes with other task costs is the caller that could
// tell: an allocation kept across the boundary would be served for costs
// it was not computed for.
func TestRunOneWithForgetsAllocationsBetweenRuns(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pool := make([]*dag.Graph, 3)
	for i := range pool {
		pool[i] = daggen.Generate(daggen.FamilyRandom, r)
	}
	next := 0
	cfg := Config{
		NPTGs:     []int{len(pool)},
		Reps:      3,
		Platforms: []*platform.Platform{platform.Rennes()},
		Seed:      1,
		Gen: func(g *dag.Graph, _ *rand.Rand) {
			src := pool[next%len(pool)]
			next++
			g.Reset(src.Name)
			for _, t := range src.Tasks {
				g.AddTask(t.Name, t.DataElems, t.SeqGFlop, t.Alpha)
			}
			for _, e := range src.Edges {
				g.MustAddEdge(g.Tasks[e.From.ID], g.Tasks[e.To.ID], e.Bytes)
			}
		},
	}.Defaults()
	sc := core.NewScratch()
	for rep := 0; rep < cfg.Reps; rep++ {
		for _, g := range pool {
			for _, task := range g.Tasks {
				task.SeqGFlop *= 1 + 2*r.Float64()
				task.Alpha = 0.25 * r.Float64()
			}
		}
		got, want := RunOneWith(cfg, 0, rep, 0, sc), RunOneWith(cfg, 0, rep, 0, core.NewScratch())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rep %d: the shared scratch served allocations of the previous run's costs\n%+v\nfresh\n%+v", rep, got, want)
		}
	}
}
