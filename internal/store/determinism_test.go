package store

// Worker-count invariance for the scratch-threaded Sweep: the store's
// logical contents (results by point index, in their JSONL wire form) must
// be bit-identical at every worker count. Segment byte order is append
// order and legitimately varies with scheduling; the sorted wire form is
// the determinism contract.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"ptgsched/internal/scenario"
)

func TestSweepWorkerInvariance(t *testing.T) {
	e := expand(t, smokeSpec)

	wire := func(t *testing.T, workers int) []byte {
		t.Helper()
		dir := filepath.Join(t.TempDir(), "store")
		s, err := Create(dir, e, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if ran, skipped, err := s.Sweep(e.All(), workers); err != nil || ran != e.NumPoints() || skipped != 0 {
			t.Fatalf("Sweep = (%d, %d, %v), want (%d, 0, nil)", ran, skipped, err, e.NumPoints())
		}
		results := sortedResults(t, s)
		var buf bytes.Buffer
		if err := scenario.WriteJSONL(&buf, results); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	want := wire(t, 1)
	for _, workers := range []int{2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			if got := wire(t, workers); !bytes.Equal(got, want) {
				t.Fatal("store contents differ from the 1-worker reference")
			}
		})
	}
}

// sortedResults streams the store's completed results through Each and
// returns them in global point order.
func sortedResults(t *testing.T, s *Store) []scenario.PointResult {
	t.Helper()
	var out []scenario.PointResult
	if err := s.Each(func(r scenario.PointResult) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}
