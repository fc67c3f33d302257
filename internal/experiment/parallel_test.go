package experiment

import (
	"reflect"
	"sync"
	"testing"

	"ptgsched/internal/core"
	"ptgsched/internal/daggen"
	"ptgsched/internal/platform"
)

// parallelTestConfig is a reduced campaign that still exercises multiple
// points, reps and platforms — enough keys (2×2×2 = 8 runs) to force real
// interleaving at 8 workers.
func parallelTestConfig() Config {
	return Config{
		Family:    daggen.FamilyStrassen,
		NPTGs:     []int{2, 4},
		Reps:      2,
		Platforms: []*platform.Platform{platform.Rennes(), platform.Nancy()},
		Seed:      17,
	}.Defaults()
}

// TestRunParallelMatchesSequential pins the contract the parallel sweeps
// build on: RunOneWith fanned out over goroutines, one scratch each and
// one shared Config, measures every (point, rep, platform) run exactly as
// the sequential reference does — bit-identical, because neither the
// per-run seed nor the run itself depends on the interleaving.
func TestRunParallelMatchesSequential(t *testing.T) {
	cfg := parallelTestConfig()
	type key struct{ point, rep, pf int }
	var keys []key
	for point := range cfg.NPTGs {
		for rep := 0; rep < cfg.Reps; rep++ {
			for pf := range cfg.Platforms {
				keys = append(keys, key{point, rep, pf})
			}
		}
	}
	want := make([]Measurement, len(keys))
	sc := core.NewScratch()
	for i, k := range keys {
		want[i] = RunOneWith(cfg, k.point, k.rep, k.pf, sc)
	}

	for _, workers := range []int{2, 8, 16} {
		got := make([]Measurement, len(keys))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sc := core.NewScratch()
				for i := w; i < len(keys); i += workers {
					k := keys[i]
					got[i] = RunOneWith(cfg, k.point, k.rep, k.pf, sc)
				}
			}(w)
		}
		wg.Wait()
		for i, k := range keys {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("workers %d, point %d rep %d platform %d diverges from the sequential run:\nseq: %+v\npar: %+v",
					workers, k.point, k.rep, k.pf, want[i], got[i])
			}
		}
	}
}
