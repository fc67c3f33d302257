package experiment

import (
	"fmt"

	"ptgsched/internal/daggen"
	"ptgsched/internal/strategy"
)

// MuSweep is the µ grid of Figure 2.
var MuSweep = []float64{0, 0.3, 0.5, 0.7, 0.8, 0.9, 1}

// Fig2Config returns the campaign of Figure 2: the µ parameter of the
// WPS-work strategy swept over MuSweep on randomly generated PTGs,
// reporting unfairness and (absolute) average makespan per number of
// concurrent PTGs.
func Fig2Config(seed int64, reps int) Config {
	return MuCalibrationConfig(strategy.Work, daggen.FamilyRandom, seed, reps)
}

// MuCalibrationConfig returns the analogous sweep for any WPS variant and
// PTG family, used to justify the paper's per-variant µ defaults (§7).
func MuCalibrationConfig(char strategy.Characteristic, family daggen.Family, seed int64, reps int) Config {
	cfg := Config{Family: family, Seed: seed, Reps: reps}
	for _, mu := range MuSweep {
		cfg.Strategies = append(cfg.Strategies, strategy.WPS(char, mu))
		cfg.Labels = append(cfg.Labels, fmt.Sprintf("mu=%.1f", mu))
	}
	return cfg
}

// Fig3Config returns the campaign of Figure 3: the eight constraint
// determination strategies on randomly generated PTGs.
func Fig3Config(seed int64, reps int) Config {
	return Config{Family: daggen.FamilyRandom, Seed: seed, Reps: reps}
}

// Fig4Config returns the campaign of Figure 4: the eight strategies on FFT
// PTGs.
func Fig4Config(seed int64, reps int) Config {
	return Config{Family: daggen.FamilyFFT, Seed: seed, Reps: reps}
}

// Fig5Config returns the campaign of Figure 5: the six applicable
// strategies on Strassen PTGs (width-based strategies coincide with ES).
func Fig5Config(seed int64, reps int) Config {
	return Config{Family: daggen.FamilyStrassen, Seed: seed, Reps: reps}
}
