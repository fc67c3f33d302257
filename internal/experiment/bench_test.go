package experiment

import (
	"testing"

	"ptgsched/internal/daggen"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
)

// The paper-figure campaigns at benchmark size: 1 combination per point
// on one platform, one worker. Each measures the complete pipeline that
// produces the figure (the full 25×4 campaigns are `ptgbench -experiment
// fig2..fig5`) — the profile targets for end-to-end pipeline work.
func BenchmarkFigureCampaigns(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"Fig2MuSweepWPSWork", Fig2Config(42, 1)},
		{"Fig3RandomPTGs", Fig3Config(42, 1)},
		{"Fig4FFTPTGs", Fig4Config(42, 1)},
		{"Fig5StrassenPTGs", Fig5Config(42, 1)},
		{"MuCalibration", MuCalibrationConfig(strategy.Width, daggen.FamilyFFT, 42, 1)},
	} {
		cfg := c.cfg
		cfg.NPTGs = []int{2, 6, 10}
		cfg.Platforms = []*platform.Platform{platform.Rennes()}
		cfg.Workers = 1
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
