package experiment

import (
	"fmt"
	"testing"

	"ptgsched/internal/daggen"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
)

// The paper-figure campaigns at benchmark size: 1 combination per point
// on one platform. Each measures the complete pipeline that
// produces the figure (the full 25×4 campaigns are `ptgbench -experiment
// fig2..fig5`) — the profile targets for end-to-end pipeline work.
func BenchmarkFigureCampaigns(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"Fig2MuSweepWPSWork", muSweep(strategy.Work, daggen.FamilyRandom)},
		{"Fig3RandomPTGs", Config{Family: daggen.FamilyRandom, Seed: 42, Reps: 1}},
		{"Fig4FFTPTGs", Config{Family: daggen.FamilyFFT, Seed: 42, Reps: 1}},
		{"Fig5StrassenPTGs", Config{Family: daggen.FamilyStrassen, Seed: 42, Reps: 1}},
		{"MuCalibration", muSweep(strategy.Width, daggen.FamilyFFT)},
	} {
		cfg := c.cfg
		cfg.NPTGs = []int{2, 6, 10}
		cfg.Platforms = []*platform.Platform{platform.Rennes()}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := Run(cfg); len(res.Points) != 3 {
					b.Fatal("campaign lost points")
				}
			}
		})
	}
}

// muSweep is one µ calibration campaign at benchmark size: WPS-char at
// every µ of MuSweep on one family.
func muSweep(char strategy.Characteristic, family daggen.Family) Config {
	cfg := Config{Family: family, Seed: 42, Reps: 1}
	for _, mu := range MuSweep {
		cfg.Strategies = append(cfg.Strategies, strategy.WPS(char, mu))
		cfg.Labels = append(cfg.Labels, fmt.Sprintf("mu=%.1f", mu))
	}
	return cfg
}
