// Package workload builds submission workloads for the online scheduler:
// bursts, Poisson arrival processes and fixed-interval streams of PTGs, plus
// a JSON trace format so workloads can be saved and replayed.
//
// Concurrency: Generate is pure given its *rand.Rand (not safe for
// concurrent use — one source per caller); the trace readers/writers are
// plain streaming functions over caller-owned data.
package workload

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"

	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/online"
)

// Spec describes a synthetic workload.
type Spec struct {
	// Family is the PTG family applications are drawn from.
	Family daggen.Family
	// Count is the number of applications.
	Count int
	// Process selects the arrival process.
	Process Process
	// Rate is the arrival rate in applications per second (Poisson and
	// Uniform processes). Ignored for Burst.
	Rate float64
	// Gen overrides the per-application generator: it generates one graph
	// into g, resetting it first, as daggen.GenerateInto does. When nil,
	// applications are drawn with daggen.GenerateInto(g, Family, r); the
	// scenario package sets it to pin one explicit parameter-grid cell.
	Gen func(g *dag.Graph, r *rand.Rand)
}

// Process is an arrival process kind.
type Process int

const (
	// Burst submits every application at time 0, the paper's offline
	// model.
	Burst Process = iota
	// Poisson submits with exponential inter-arrival times of mean
	// 1/Rate.
	Poisson
	// Uniform submits with constant inter-arrival times of 1/Rate.
	Uniform
)

// String implements fmt.Stringer.
func (p Process) String() string {
	switch p {
	case Burst:
		return "burst"
	case Poisson:
		return "poisson"
	case Uniform:
		return "uniform"
	default:
		return fmt.Sprintf("Process(%d)", int(p))
	}
}

// ProcessByName parses an arrival-process name ("burst", "poisson" or
// "uniform", case insensitive). It is the shared resolver behind the CLIs
// and the scheduling service.
func ProcessByName(name string) (Process, error) {
	switch strings.ToLower(name) {
	case "burst":
		return Burst, nil
	case "poisson":
		return Poisson, nil
	case "uniform":
		return Uniform, nil
	default:
		return 0, fmt.Errorf("workload: unknown arrival process %q (want burst, poisson or uniform)", name)
	}
}

// Generate draws a workload: Count applications of the family with arrival
// times from the chosen process, sorted by arrival time.
func Generate(spec Spec, r *rand.Rand) []online.Arrival {
	if spec.Count <= 0 {
		panic(fmt.Sprintf("workload: count %d", spec.Count))
	}
	if spec.Process != Burst && spec.Rate <= 0 {
		panic(fmt.Sprintf("workload: rate %g for a timed process", spec.Rate))
	}
	gen := spec.Gen
	if gen == nil {
		gen = func(g *dag.Graph, r *rand.Rand) { daggen.GenerateInto(g, spec.Family, r) }
	}
	arrivals := make([]online.Arrival, spec.Count)
	t := 0.0
	for i := range arrivals {
		switch spec.Process {
		case Burst:
			t = 0
		case Poisson:
			if i > 0 {
				t += r.ExpFloat64() / spec.Rate
			}
		case Uniform:
			t = float64(i) / spec.Rate
		default:
			panic(fmt.Sprintf("workload: unknown process %d", int(spec.Process)))
		}
		g := new(dag.Graph)
		gen(g, r)
		arrivals[i] = online.Arrival{Graph: g, At: t}
	}
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].At < arrivals[j].At })
	return arrivals
}

// traceEntry is the JSON wire form of one arrival.
type traceEntry struct {
	At    float64         `json:"at"`
	Graph json.RawMessage `json:"graph"`
}

// WriteTrace saves a workload as a JSON array of {at, graph} entries.
func WriteTrace(w io.Writer, arrivals []online.Arrival) error {
	entries := make([]traceEntry, len(arrivals))
	for i, a := range arrivals {
		g, err := json.Marshal(a.Graph)
		if err != nil {
			return err
		}
		entries[i] = traceEntry{At: a.At, Graph: g}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(entries)
}

// ReadTrace loads a workload saved by WriteTrace. A trace without arrivals
// (`[]` or `null`) is refused: there is nothing to schedule.
func ReadTrace(rd io.Reader) ([]online.Arrival, error) {
	var entries []traceEntry
	if err := json.NewDecoder(rd).Decode(&entries); err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, errors.New("workload: trace holds no arrivals")
	}
	arrivals := make([]online.Arrival, len(entries))
	for i, e := range entries {
		if e.At < 0 || math.IsNaN(e.At) {
			return nil, fmt.Errorf("workload: entry %d has invalid arrival time %g", i, e.At)
		}
		g := new(dag.Graph)
		if err := json.Unmarshal(e.Graph, g); err != nil {
			return nil, fmt.Errorf("workload: entry %d: %w", i, err)
		}
		arrivals[i] = online.Arrival{Graph: g, At: e.At}
	}
	return arrivals, nil
}
