package scenario

// FuzzParseSpec checks the spec front end on arbitrary bytes: whatever
// ParseSpec accepts, EstimatePoints and Expand must read the same sweep.
// EstimatePoints counts the defaulted axes without resolving names, so
// Expand may still refuse a spec it counted (an unknown platform, process
// or complexity), but it never expands one the count refused, and where
// both succeed they agree on cells and points. The last point of an
// expansion must be derivable, and nothing may panic.

import (
	"os"
	"path/filepath"
	"testing"
)

// fuzzExpandCells bounds the expansions the fuzzer materializes, so every
// input runs in milliseconds: a larger sweep is only counted.
const fuzzExpandCells = 256

func FuzzParseSpec(f *testing.F) {
	for _, src := range []string{
		// TestEstimatePointsMatchesExpansion's specs.
		`{}`,
		`{"reps": 2, "nptgs": [2, 3], "platforms": ["lille"], "families": [{"family": "strassen"}, {"family": "fft", "k": [2, 3]}]}`,
		`{"families": [{"family": "random", "tasks": [10, 20], "jumps": [1]}], "reps": 2, "nptgs": [2], "platforms": ["lille"]}`,
		`{"online": {"processes": ["burst", "poisson"], "rates": [0.1, 0.2]}, "reps": 1, "nptgs": [2]}`,
		// Events: an explicit policy axis, and the default one.
		dynSpecSrc,
		`{"reps": 1, "nptgs": [3], "platforms": ["lille", "sophia"], "events": {"failures": [{"cluster": 1, "at": 10}]}}`,
	} {
		f.Add([]byte(src))
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "campaigns", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range append(paths, filepath.Join("..", "..", "examples", "campaign.json")) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		cells, points, estErr := EstimatePoints(spec)
		if estErr == nil && cells > fuzzExpandCells {
			return
		}
		e, err := Expand(spec)
		if estErr != nil {
			if err == nil {
				t.Fatalf("Expand accepted a spec EstimatePoints refused (%v)", estErr)
			}
			return
		}
		if err != nil {
			return
		}
		if cells != len(e.Cells) || points != e.NumPoints() {
			t.Fatalf("estimate (%d cells, %d points) vs expansion (%d, %d)",
				cells, points, len(e.Cells), e.NumPoints())
		}
		if last := e.PointAt(points - 1); last.Cell != cells-1 || last.Index != points-1 {
			t.Fatalf("last point %+v is not point %d of cell %d", last, points-1, cells-1)
		}
	})
}
