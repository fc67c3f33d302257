// Package scenario implements the declarative campaign engine: a JSON spec
// describing a scenario space — platforms (presets or inline heterogeneous
// cluster specs), PTG families with explicit parameter grids, strategy
// sets, replication counts, seeds and online arrival processes — is
// expanded into a deterministic cartesian sweep of scenario points, run
// over the sweep's worker pool (optionally partitioned into shards),
// streamed as JSONL per-point results, and aggregated back into
// the paper's summary metrics. The sweep is lazy end to end: only the
// aggregation cells are materialized — points are generated in O(1) from
// their global index (Expansion.PointAt), selections are IndexSet
// predicates, and the incremental Aggregator reduces results arriving in
// any order into fixed slots — so campaign cardinality is bounded by
// MaxPoints arithmetic, not by memory.
//
// The expansion order, per-point seeding (experiment.RunSeed) and
// aggregation order are exactly those of experiment.Run, so a spec
// equivalent to a paper figure reproduces that figure's campaign results
// bit-identically — whether run in one piece or recombined from shards.
//
// Concurrency: a parsed Spec and its Expansion are immutable after Expand;
// Run fans points out over a fixed worker pool with results independent of
// the fan-out (each point derives everything from its own seed).
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"ptgsched/internal/events"
	"ptgsched/internal/online"
)

// Spec is a declarative campaign: the JSON wire format of ptgbench
// -campaign, the /v1/campaign service endpoint and the checked-in specs
// under examples/. Zero fields take the paper's protocol defaults.
type Spec struct {
	// Name labels the campaign in outputs.
	Name string `json:"name,omitempty"`
	// Seed is the campaign's base random seed; per-point seeds derive from
	// it deterministically.
	Seed int64 `json:"seed"`
	// Reps is the number of random PTG combinations per point; default 25.
	Reps int `json:"reps,omitempty"`
	// NPTGs lists the numbers of concurrently-submitted PTGs; default
	// {2,4,6,8,10}.
	NPTGs []int `json:"nptgs,omitempty"`
	// Platforms names Grid'5000 presets (lille, nancy, rennes, sophia).
	Platforms []string `json:"platforms,omitempty"`
	// PlatformSpecs adds inline platforms with arbitrary heterogeneous
	// per-cluster speeds; they follow the named presets in platform order.
	// When both lists are empty the four Grid'5000 sites are used.
	PlatformSpecs []PlatformSpec `json:"platform_specs,omitempty"`
	// Families lists the PTG families to sweep, each optionally pinned to
	// an explicit parameter grid; default one entry of the random family
	// on the paper's randomized grid.
	Families []FamilySpec `json:"families,omitempty"`
	// Strategies selects the constraint-determination strategies; default
	// the paper's set for each family.
	Strategies []StrategySpec `json:"strategies,omitempty"`
	// Online, when present, switches every point to the §8 dynamic-arrival
	// scheduler and sweeps its arrival processes and rates.
	Online *OnlineSpec `json:"online,omitempty"`
	// Events, when present and non-empty, runs every point under a
	// dynamic-scenario event timeline (cluster failures, recoveries, speed
	// changes, PTG cancellation/resubmission) and sweeps the rescheduling
	// policies as an extra cell axis. Per-point timelines derive
	// deterministically from (spec digest, point index), so points stay
	// bit-identical and shardable. An explicitly empty events object is
	// exactly equivalent to omitting the field.
	Events *events.Spec `json:"events,omitempty"`
}

// PlatformSpec is an inline platform description.
type PlatformSpec struct {
	Name string `json:"name"`
	// SharedSwitch selects the single-switch topology; otherwise each
	// cluster has its own switch joined by a backbone.
	SharedSwitch bool `json:"shared_switch"`
	// Clusters lists the (possibly heterogeneous) clusters.
	Clusters []ClusterSpec `json:"clusters"`
}

// ClusterSpec is one cluster of an inline platform.
type ClusterSpec struct {
	Name string `json:"name"`
	// Procs is the processor count.
	Procs int `json:"procs"`
	// Speed is the per-processor speed in GFlop/s.
	Speed float64 `json:"speed"`
}

// FamilySpec selects a PTG family and, optionally, an explicit parameter
// grid. Grid axes are cartesian-expanded: each combination becomes one
// sweep cell. Absent axes of a gridded random family take the paper's full
// value lists; a random family with no axes at all draws every parameter
// per graph, as the paper does.
type FamilySpec struct {
	// Family is random, fft or strassen.
	Family string `json:"family"`
	// Random-family axes (§2): task counts, widths, regularities,
	// densities, jumps, complexity scenarios.
	Tasks        Ints     `json:"tasks,omitempty"`
	Widths       Floats   `json:"widths,omitempty"`
	Regularities Floats   `json:"regularities,omitempty"`
	Densities    Floats   `json:"densities,omitempty"`
	Jumps        Ints     `json:"jumps,omitempty"`
	Complexities []string `json:"complexities,omitempty"`
	// K lists FFT size exponents (2^k points); fft-family axis.
	K Ints `json:"k,omitempty"`
}

// gridded reports whether the entry pins any random-family grid axis (the
// fft family's one axis, K, is tested by its length).
func (f FamilySpec) gridded() bool {
	return len(f.Tasks) > 0 || len(f.Widths) > 0 || len(f.Regularities) > 0 ||
		len(f.Densities) > 0 || len(f.Jumps) > 0 || len(f.Complexities) > 0
}

// StrategySpec names one strategy of the campaign's comparison set.
type StrategySpec struct {
	// Name is the paper name: S, ES, PS-{cp,width,work}, WPS-{cp,width,work}.
	Name string `json:"name"`
	// Mu overrides the calibrated µ of WPS strategies.
	Mu *float64 `json:"mu,omitempty"`
	// Label overrides the display label (e.g. "mu=0.3" in a µ sweep).
	Label string `json:"label,omitempty"`
}

// OnlineSpec sweeps the online scheduler's arrival processes.
type OnlineSpec struct {
	// Processes lists arrival processes (burst, poisson, uniform);
	// default poisson.
	Processes []string `json:"processes,omitempty"`
	// Rates lists arrival rates in applications/second; default 0.25.
	Rates Floats `json:"rates,omitempty"`
}

// rangeSpec is the object form of an axis: {"from":a,"to":b,"step":s}.
type rangeSpec struct {
	From float64 `json:"from"`
	To   float64 `json:"to"`
	Step float64 `json:"step"`
}

func (r rangeSpec) expand() ([]float64, error) {
	if r.Step <= 0 {
		return nil, fmt.Errorf("scenario: range step %g must be positive", r.Step)
	}
	if r.To < r.From {
		return nil, fmt.Errorf("scenario: empty range [%g, %g]", r.From, r.To)
	}
	if n := (r.To - r.From) / r.Step; n > 10000 {
		return nil, fmt.Errorf("scenario: range [%g, %g] step %g expands to over 10000 values", r.From, r.To, r.Step)
	}
	var vs []float64
	// The epsilon keeps to itself reachable despite accumulated rounding
	// (e.g. from=0.2, step=0.3, to=0.8).
	for x := r.From; x <= r.To+1e-9; x += r.Step {
		vs = append(vs, x)
	}
	return vs, nil
}

// Floats is a float-valued axis: either an explicit JSON list ([0.2, 0.8])
// or a range object ({"from":0.2,"to":0.8,"step":0.3}).
type Floats []float64

// UnmarshalJSON implements json.Unmarshaler, accepting both axis forms.
func (v *Floats) UnmarshalJSON(b []byte) error {
	var list []float64
	if err := json.Unmarshal(b, &list); err == nil {
		*v = list
		return nil
	}
	var r rangeSpec
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return fmt.Errorf("scenario: axis must be a list or {from,to,step}: %w", err)
	}
	vs, err := r.expand()
	if err != nil {
		return err
	}
	*v = vs
	return nil
}

// Ints is an integer-valued axis: an explicit list or a range object whose
// expanded values must all be integers.
type Ints []int

// UnmarshalJSON implements json.Unmarshaler, accepting both axis forms.
func (v *Ints) UnmarshalJSON(b []byte) error {
	var fs Floats
	if err := fs.UnmarshalJSON(b); err != nil {
		return err
	}
	is := make([]int, len(fs))
	for i, f := range fs {
		n := math.Round(f)
		if math.Abs(f-n) > 1e-9 {
			return fmt.Errorf("scenario: axis value %g is not an integer", f)
		}
		is[i] = int(n)
	}
	*v = is
	return nil
}

// ParseSpec decodes and validates a campaign spec, rejecting unknown
// fields so typos in spec files fail loudly instead of silently falling
// back to defaults.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: invalid spec: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// SpecDigest returns the canonical content digest of a spec: the SHA-256
// of its re-serialized (parsed) form, as a hex string. Two spec files that
// differ only in formatting or field order digest identically, while any
// change that alters the expansion — an axis value, a seed, a strategy —
// produces a new digest. The campaign store records it in its manifest so
// a result directory can never be resumed against a different sweep.
func SpecDigest(s *Spec) string {
	b, err := json.Marshal(s)
	if err != nil {
		// A parsed Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("scenario: marshaling spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// validate checks the structural constraints Expand relies on.
func (s *Spec) validate() error {
	if s.Reps < 0 {
		return fmt.Errorf("scenario: reps %d must be non-negative", s.Reps)
	}
	for _, n := range s.NPTGs {
		if n < 1 {
			return fmt.Errorf("scenario: nptgs value %d must be at least 1", n)
		}
	}
	for _, ps := range s.PlatformSpecs {
		if ps.Name == "" {
			return fmt.Errorf("scenario: inline platform needs a name")
		}
		if len(ps.Clusters) == 0 {
			return fmt.Errorf("scenario: inline platform %q has no clusters", ps.Name)
		}
		for _, c := range ps.Clusters {
			if c.Procs < 1 {
				return fmt.Errorf("scenario: platform %q cluster %q has %d processors", ps.Name, c.Name, c.Procs)
			}
			if c.Speed <= 0 || math.IsNaN(c.Speed) || math.IsInf(c.Speed, 0) {
				return fmt.Errorf("scenario: platform %q cluster %q has speed %g", ps.Name, c.Name, c.Speed)
			}
		}
	}
	for i, f := range s.Families {
		fam := strings.ToLower(f.Family)
		if fam != "random" && fam != "fft" && fam != "strassen" {
			return fmt.Errorf("scenario: families[%d]: unknown family %q (want random, fft or strassen)", i, f.Family)
		}
		if f.gridded() && fam != "random" {
			return fmt.Errorf("scenario: families[%d]: random-grid axes on family %q", i, f.Family)
		}
		if len(f.K) > 0 && fam != "fft" {
			return fmt.Errorf("scenario: families[%d]: k axis on family %q", i, f.Family)
		}
	}
	if s.Online != nil {
		for _, r := range s.Online.Rates {
			if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				return fmt.Errorf("scenario: online rate %g must be positive and finite", r)
			}
		}
	}
	if s.Events != nil {
		if err := s.Events.Validate(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		for _, p := range s.Events.Policies {
			if _, err := online.PolicyByName(p); err != nil {
				return fmt.Errorf("scenario: %w", err)
			}
		}
	}
	return nil
}
