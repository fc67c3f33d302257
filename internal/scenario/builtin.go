package scenario

import (
	"fmt"
	"strings"

	"ptgsched/internal/daggen"
	"ptgsched/internal/experiment"
	"ptgsched/internal/strategy"
)

// PaperSpec returns the declarative spec of one of the paper's evaluation
// campaigns ("fig2" … "fig5"), the one description of each figure.
// Expanding and running it reproduces that figure's campaign; the
// checked-in examples/campaign.json is the serialized
// PaperSpec("fig3", 42, 25).
func PaperSpec(name string, seed int64, reps int) (*Spec, error) {
	var s *Spec
	switch strings.ToLower(name) {
	case "fig2":
		// Figure 2: the µ parameter of WPS-work swept over the paper's
		// grid on random PTGs.
		s = MuSweepSpec(strategy.Work, daggen.FamilyRandom, seed, reps)
	case "fig3":
		// Figure 3: the eight strategies on random PTGs.
		s = familySpec(daggen.FamilyRandom, seed, reps)
	case "fig4":
		// Figure 4: the eight strategies on FFT PTGs.
		s = familySpec(daggen.FamilyFFT, seed, reps)
	case "fig5":
		// Figure 5: the six applicable strategies on Strassen PTGs (the
		// width-based strategies coincide with ES there).
		s = familySpec(daggen.FamilyStrassen, seed, reps)
	default:
		return nil, fmt.Errorf("scenario: unknown paper campaign %q (want fig2, fig3, fig4 or fig5)", name)
	}
	s.Name = strings.ToLower(name)
	return s, nil
}

// familySpec is the paper's protocol on one PTG family: every other axis
// and the strategy set take their defaults.
func familySpec(family daggen.Family, seed int64, reps int) *Spec {
	return &Spec{Seed: seed, Reps: reps, Families: []FamilySpec{{Family: family.String()}}}
}

// MuSweepSpec returns the spec of one µ calibration sweep (§7): WPS-char
// at every µ of experiment.MuSweep, labelled "mu=0.0" … "mu=1.0", on the
// paper's PTGs of one family. Figure 2 is the sweep of WPS-work on random
// PTGs; the others justify the paper's per-variant µ defaults.
func MuSweepSpec(char strategy.Characteristic, family daggen.Family, seed int64, reps int) *Spec {
	s := familySpec(family, seed, reps)
	for _, mu := range experiment.MuSweep {
		s.Strategies = append(s.Strategies, StrategySpec{
			Name: "WPS-" + char.String(), Mu: &mu, Label: fmt.Sprintf("mu=%.1f", mu),
		})
	}
	return s
}
