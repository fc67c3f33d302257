package daggen

import (
	"fmt"
	"math/rand"
	"strings"

	"ptgsched/internal/dag"
)

// Paper parameter grids (§2): width ∈ {0.2, 0.5, 0.8}, regularity and
// density ∈ {0.2, 0.8}, jump ∈ {1, 2, 4}, task counts ∈ {10, 20, 50},
// FFT sizes 4-, 8- and 16-point (k ∈ {2, 3, 4}).
var (
	PaperTaskCounts   = []int{10, 20, 50}
	PaperWidths       = []float64{0.2, 0.5, 0.8}
	PaperRegularities = []float64{0.2, 0.8}
	PaperDensities    = []float64{0.2, 0.8}
	PaperJumps        = []int{1, 2, 4}
	PaperFFTExponents = []int{2, 3, 4}
)

// PaperRandomConfig draws a random PTG configuration uniformly from the
// paper's parameter grid, with the complexity scenario drawn among the four
// of §2 (three pure classes plus mixed).
func PaperRandomConfig(r *rand.Rand) RandomConfig {
	return RandomConfig{
		Tasks:      PaperTaskCounts[r.Intn(len(PaperTaskCounts))],
		Width:      PaperWidths[r.Intn(len(PaperWidths))],
		Regularity: PaperRegularities[r.Intn(len(PaperRegularities))],
		Density:    PaperDensities[r.Intn(len(PaperDensities))],
		Jump:       PaperJumps[r.Intn(len(PaperJumps))],
		Complexity: ComplexityMode(r.Intn(4)),
	}
}

// Family identifies one of the paper's three PTG families.
type Family int

const (
	FamilyRandom Family = iota
	FamilyFFT
	FamilyStrassen
)

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case FamilyRandom:
		return "random"
	case FamilyFFT:
		return "fft"
	case FamilyStrassen:
		return "strassen"
	default:
		return "unknown"
	}
}

// FamilyByName parses a family name ("random", "fft" or "strassen", case
// insensitive). It is the shared resolver behind the CLIs and the
// scheduling service.
func FamilyByName(name string) (Family, error) {
	switch strings.ToLower(name) {
	case "random":
		return FamilyRandom, nil
	case "fft":
		return FamilyFFT, nil
	case "strassen":
		return FamilyStrassen, nil
	default:
		return 0, fmt.Errorf("daggen: unknown family %q (want random, fft or strassen)", name)
	}
}

// Generate draws one PTG of the given family using the paper's parameter
// grids: a PaperRandomConfig graph, an FFT of a random paper size, or a
// Strassen graph.
func Generate(f Family, r *rand.Rand) *dag.Graph {
	g := new(dag.Graph)
	GenerateInto(g, f, r)
	return g
}

// GenerateInto is Generate generating into g, which it resets first: the
// same draws from r give the same graph, in storage g already holds.
func GenerateInto(g *dag.Graph, f Family, r *rand.Rand) {
	switch f {
	case FamilyRandom:
		RandomInto(g, PaperRandomConfig(r), r)
	case FamilyFFT:
		FFTInto(g, PaperFFTExponents[r.Intn(len(PaperFFTExponents))], r)
	case FamilyStrassen:
		StrassenInto(g, r)
	default:
		panic("daggen: unknown family")
	}
}
