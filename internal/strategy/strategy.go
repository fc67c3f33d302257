// Package strategy implements the eight resource-constraint determination
// strategies of §6 of the paper. Given the set A of PTGs to schedule
// concurrently, each strategy assigns every PTG i a constraint βᵢ ∈ (0, 1]:
// the fraction of the platform's total processing power PTG i may use to
// build its schedule.
//
//   - S (selfish): βᵢ = 1 — every application may use everything; the
//     baseline corresponding to heuristics designed for dedicated platforms.
//   - ES (equal share): βᵢ = 1/|A|.
//   - PS-x (proportional share): βᵢ = γᵢ/Σⱼγⱼ (Eq. 1), where γ is one of
//     three PTG characteristics x: critical-path length, maximal width, or
//     total work.
//   - WPS-x (weighted proportional share): βᵢ = µ/|A| + (1−µ)·γᵢ/Σⱼγⱼ
//     (Eq. 2), a tunable compromise between ES (µ=1) and PS (µ=0).
//
// Concurrency: Strategy is an immutable value; Betas keeps its state in
// per-call values but reads the graphs' cached analyses, so concurrent
// Betas calls are safe on distinct graph sets.
package strategy

import (
	"fmt"
	"slices"
	"strings"

	"ptgsched/internal/cost"
	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/platform"
)

// Characteristic selects the PTG property γ used by the PS and WPS
// strategies.
type Characteristic int

const (
	// CriticalPath uses the length of the PTG's critical path (sequential
	// reference-cluster times, computation only).
	CriticalPath Characteristic = iota
	// Width uses the PTG's maximal precedence-level width: the maximal
	// task parallelism it can exploit.
	Width
	// Work uses the PTG's total sequential work in GFlop.
	Work
)

// String implements fmt.Stringer.
func (c Characteristic) String() string {
	switch c {
	case CriticalPath:
		return "cp"
	case Width:
		return "width"
	case Work:
		return "work"
	default:
		return fmt.Sprintf("Characteristic(%d)", int(c))
	}
}

// Gamma returns the characteristic value γ of g for the given reference
// cluster.
func Gamma(c Characteristic, g *dag.Graph, ref platform.Reference) float64 {
	switch c {
	case CriticalPath:
		seq := func(t *dag.Task) float64 { return cost.SeqTime(t.SeqGFlop, ref.Speed) }
		return g.CriticalPathLength(seq)
	case Width:
		return float64(g.MaxWidth())
	case Work:
		return g.TotalWork()
	default:
		panic(fmt.Sprintf("strategy: unknown characteristic %d", int(c)))
	}
}

// Kind identifies a strategy family.
type Kind int

const (
	// Selfish is the S strategy: β = 1 for every PTG.
	Selfish Kind = iota
	// EqualShare is the ES strategy: β = 1/|A|.
	EqualShare
	// ProportionalShare is the PS-x strategy (Eq. 1).
	ProportionalShare
	// WeightedProportionalShare is the WPS-x strategy (Eq. 2).
	WeightedProportionalShare
)

// Strategy is a fully-specified constraint determination strategy.
type Strategy struct {
	Kind Kind
	// Char is the PTG characteristic used by PS and WPS.
	Char Characteristic
	// Mu is the WPS weight µ ∈ [0,1]; 0 degenerates to PS, 1 to ES.
	Mu float64
}

// Paper strategy constructors.

// S returns the selfish strategy.
func S() Strategy { return Strategy{Kind: Selfish} }

// ES returns the equal-share strategy.
func ES() Strategy { return Strategy{Kind: EqualShare} }

// PS returns the proportional-share strategy on characteristic c.
func PS(c Characteristic) Strategy { return Strategy{Kind: ProportionalShare, Char: c} }

// WPS returns the weighted proportional-share strategy on characteristic c
// with weight mu.
func WPS(c Characteristic, mu float64) Strategy {
	if mu < 0 || mu > 1 {
		panic(fmt.Sprintf("strategy: mu %g outside [0,1]", mu))
	}
	return Strategy{Kind: WeightedProportionalShare, Char: c, Mu: mu}
}

// Name returns the paper's name for the strategy (e.g. "WPS-width").
func (s Strategy) Name() string {
	switch s.Kind {
	case Selfish:
		return "S"
	case EqualShare:
		return "ES"
	case ProportionalShare:
		return "PS-" + s.Char.String()
	case WeightedProportionalShare:
		return "WPS-" + s.Char.String()
	default:
		return fmt.Sprintf("Strategy(%d)", int(s.Kind))
	}
}

// String implements fmt.Stringer.
func (s Strategy) String() string { return s.Name() }

// Betas computes the per-PTG resource constraints for the given set of
// applications on the given reference cluster, into a new slice.
func (s Strategy) Betas(graphs []*dag.Graph, ref platform.Reference) []float64 {
	return s.BetasInto(nil, graphs, ref)
}

// BetasInto is Betas computed into dst's storage, which it grows if it is
// too short; it returns the constraints, and the γ vector the PS and WPS
// strategies compute them from lives in the same storage.
func (s Strategy) BetasInto(dst []float64, graphs []*dag.Graph, ref platform.Reference) []float64 {
	n := len(graphs)
	if n == 0 {
		return dst[:0]
	}
	betas := slices.Grow(dst[:0], n)[:n]
	switch s.Kind {
	case Selfish:
		for i := range betas {
			betas[i] = 1
		}
	case EqualShare:
		for i := range betas {
			betas[i] = 1 / float64(n)
		}
	case ProportionalShare, WeightedProportionalShare:
		// Each β replaces its own γ.
		gammas := betas
		sum := 0.0
		for i, g := range graphs {
			gammas[i] = Gamma(s.Char, g, ref)
			sum += gammas[i]
		}
		if sum <= 0 {
			panic("strategy: characteristic sum is not positive")
		}
		mu := s.Mu
		if s.Kind == ProportionalShare {
			mu = 0
		}
		for i := range betas {
			betas[i] = mu/float64(n) + (1-mu)*gammas[i]/sum
		}
	default:
		panic(fmt.Sprintf("strategy: unknown kind %d", int(s.Kind)))
	}
	return betas
}

// DefaultMu returns the µ value the paper calibrates for each WPS variant
// (§7): 0.7 for WPS-work on every PTG family, 0.5 for WPS-cp, and for
// WPS-width 0.3 on FFT graphs and 0.5 otherwise.
func DefaultMu(c Characteristic, family daggen.Family) float64 {
	switch c {
	case Work:
		return 0.7
	case CriticalPath:
		return 0.5
	case Width:
		if family == daggen.FamilyFFT {
			return 0.3
		}
		return 0.5
	default:
		panic(fmt.Sprintf("strategy: unknown characteristic %d", int(c)))
	}
}

// Names lists every registered strategy name, in the paper's order. It is
// the registry the property-based invariant suite (FuzzScheduleInvariants)
// iterates: every name resolves through ByName for every family.
func Names() []string {
	return []string{"S", "ES", "PS-cp", "PS-width", "PS-work", "WPS-cp", "WPS-width", "WPS-work"}
}

// PaperSet returns the strategies compared in the paper's evaluation for
// the given PTG family, in the paper's order. For Strassen PTGs the
// width-based strategies are omitted: all Strassen graphs have the same
// maximal width, so PS-width and WPS-width coincide with ES (§7, Fig. 5).
func PaperSet(family daggen.Family) []Strategy {
	all := []Strategy{
		S(),
		ES(),
		PS(CriticalPath),
		PS(Width),
		PS(Work),
		WPS(CriticalPath, DefaultMu(CriticalPath, family)),
		WPS(Width, DefaultMu(Width, family)),
		WPS(Work, DefaultMu(Work, family)),
	}
	if family != daggen.FamilyStrassen {
		return all
	}
	var kept []Strategy
	for _, s := range all {
		if (s.Kind == ProportionalShare || s.Kind == WeightedProportionalShare) && s.Char == Width {
			continue
		}
		kept = append(kept, s)
	}
	return kept
}

// ByName parses a strategy by its paper name ("S", "ES", "PS-cp",
// "PS-width", "PS-work", "WPS-cp", "WPS-width" or "WPS-work", case
// insensitive). A negative mu selects the paper's calibrated default for
// the WPS variants (DefaultMu); family only affects that default. It is the
// shared resolver behind the CLIs and the scheduling service.
func ByName(name string, mu float64, family daggen.Family) (Strategy, error) {
	pick := func(c Characteristic) (float64, error) {
		if mu < 0 {
			return DefaultMu(c, family), nil
		}
		if mu > 1 {
			return 0, fmt.Errorf("strategy: mu %g outside [0,1]", mu)
		}
		return mu, nil
	}
	switch strings.ToLower(name) {
	case "s":
		return S(), nil
	case "es":
		return ES(), nil
	case "ps-cp":
		return PS(CriticalPath), nil
	case "ps-width":
		return PS(Width), nil
	case "ps-work":
		return PS(Work), nil
	case "wps-cp":
		m, err := pick(CriticalPath)
		if err != nil {
			return Strategy{}, err
		}
		return WPS(CriticalPath, m), nil
	case "wps-width":
		m, err := pick(Width)
		if err != nil {
			return Strategy{}, err
		}
		return WPS(Width, m), nil
	case "wps-work":
		m, err := pick(Work)
		if err != nil {
			return Strategy{}, err
		}
		return WPS(Work, m), nil
	default:
		return Strategy{}, fmt.Errorf("strategy: unknown strategy %q (want S, ES, PS-{cp,width,work} or WPS-{cp,width,work})", name)
	}
}
