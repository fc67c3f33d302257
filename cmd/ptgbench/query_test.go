package main

// CLI tests of -query: the flag surface, the indexed-vs-fullscan
// differential contract on stdout, and a golden aggregate table over a
// checked-in two-family campaign.

import (
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"ptgsched/internal/clitest"
)

const querySpec = "testdata/query-campaign.json"

// queryStore sweeps the two-family campaign into a fresh sharded store
// and returns its directory.
func queryStore(t *testing.T, shards int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	if shards > 1 {
		for i := 0; i < shards; i++ {
			args := []string{"-campaign", querySpec, "-shard",
				// e.g. 0/2, 1/2 — later shards resume the shared store.
				string(rune('0'+i)) + "/" + string(rune('0'+shards)), "-store", dir}
			if i > 0 {
				args = append(args, "-resume")
			}
			runCLI(t, args...)
		}
	} else {
		runCLI(t, "-campaign", querySpec, "-store", dir)
	}
	return dir
}

func TestGoldenQueryTable(t *testing.T) {
	dir := queryStore(t, 2)
	clitest.CheckGolden(t, "query-table.golden",
		runCLI(t, "-campaign", querySpec, "-store", dir, "-query",
			"-family", "strassen", "-strategy", "WPS-work"))
}

// TestQueryIndexedMatchesFullScan is the differential contract at the
// CLI boundary: for a battery of predicates over a multi-shard store,
// -query and -query -fullscan print byte-identical JSONL and tables.
func TestQueryIndexedMatchesFullScan(t *testing.T) {
	dir := queryStore(t, 3)
	batteries := [][]string{
		{},
		{"-family", "strassen"},
		{"-family", "fft"},
		{"-strategy", "ES"},
		{"-family", "fft", "-strategy", "PS-width"},
		{"-from", "5", "-to", "21"},
		{"-family", "strassen", "-strategy", "S", "-from", "2", "-to", "40"},
		{"-to", "0"},
	}
	for _, extra := range batteries {
		for _, format := range []string{"jsonl", "table"} {
			base := append([]string{"-campaign", querySpec, "-store", dir,
				"-query", "-format", format}, extra...)
			indexed := runCLI(t, base...)
			full := runCLI(t, append(base, "-fullscan")...)
			if !bytes.Equal(indexed, full) {
				t.Errorf("%v (%s): indexed and full-scan output differ\n--- indexed ---\n%s\n--- full scan ---\n%s",
					extra, format, indexed, full)
			}
		}
	}
}

// TestQueryJSONLSelectsExactRange spot-checks the record stream: an
// index-range predicate over the 24-point campaign emits exactly its
// records, each once. The stream follows the store's segments, which
// fill in completion order, so the order is not part of the contract.
func TestQueryJSONLSelectsExactRange(t *testing.T) {
	dir := queryStore(t, 1)
	out := runCLI(t, "-campaign", querySpec, "-store", dir, "-query",
		"-format", "jsonl", "-from", "7", "-to", "13")
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 6 {
		t.Fatalf("%d JSONL lines, want 6:\n%s", len(lines), out)
	}
	seen := map[int]bool{}
	for _, l := range lines {
		var r struct{ Index int }
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("line %s: %v", l, err)
		}
		if r.Index < 7 || r.Index > 12 || seen[r.Index] {
			t.Fatalf("index %d emitted outside {7,…,12} or twice:\n%s", r.Index, out)
		}
		seen[r.Index] = true
	}
	// to=0 is the explicit empty selection: no records, exit 0.
	if out := runCLI(t, "-campaign", querySpec, "-store", dir, "-query",
		"-format", "jsonl", "-to", "0"); len(out) != 0 {
		t.Fatalf("-to 0 emitted %d bytes, want none:\n%s", len(out), out)
	}
}

func TestQueryFlagValidation(t *testing.T) {
	dir := queryStore(t, 1)
	var buf bytes.Buffer
	for _, c := range []struct {
		name string
		args []string
	}{
		{"query without -campaign", []string{"-query", "-store", dir}},
		{"query without -store", []string{"-campaign", querySpec, "-query"}},
		{"query with -resume", []string{"-campaign", querySpec, "-store", dir, "-query", "-resume"}},
		{"query with -merge", []string{"-campaign", querySpec, "-store", dir, "-query", "-merge", dir}},
		{"query with -shard", []string{"-campaign", querySpec, "-store", dir, "-query", "-shard", "0/2"}},
		{"predicate flags without -query", []string{"-campaign", querySpec, "-family", "fft"}},
		{"bad format", []string{"-campaign", querySpec, "-store", dir, "-query", "-format", "csv"}},
		{"unknown family", []string{"-campaign", querySpec, "-store", dir, "-query", "-family", "nope"}},
		{"unknown strategy", []string{"-campaign", querySpec, "-store", dir, "-query", "-strategy", "nope"}},
		{"from beyond expansion", []string{"-campaign", querySpec, "-store", dir, "-query", "-from", "48"}},
		// -1 is the default, the end of the expansion; below it nothing
		// is a bound, so it must not silently select to the end.
		{"to below -1", []string{"-campaign", querySpec, "-store", dir, "-query", "-to", "-5"}},
	} {
		if err := run(c.args, &buf); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// A strategy only some families run is a valid filter; it selects the
	// families that have it (PS-width exists on fft, not strassen).
	if err := run([]string{"-campaign", querySpec, "-store", dir, "-query",
		"-strategy", "PS-width"}, io.Discard); err != nil {
		t.Errorf("family-partial strategy rejected: %v", err)
	}
}
