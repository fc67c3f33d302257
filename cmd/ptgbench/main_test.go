package main

// Golden CLI tests (see internal/clitest): ptgbench's stdout for fixed
// seeds is captured under testdata/*.golden; refresh with
// `go test ./cmd/ptgbench -update`. The shard test additionally asserts
// the core campaign promise on the wire: -shard 0/2 and 1/2 recombined
// through -merge print byte-for-byte what the unsharded run prints.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ptgsched"
	"ptgsched/internal/clitest"
)

func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	return clitest.Run(t, run, args...)
}

func TestGoldenTable1(t *testing.T) {
	clitest.CheckGolden(t, "table1.golden", runCLI(t, "-experiment", "table1"))
}

func TestGoldenCampaign(t *testing.T) {
	clitest.CheckGolden(t, "campaign.golden",
		runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-workers", "2"))
}

func TestCampaignShardsMergeToUnshardedOutput(t *testing.T) {
	unsharded := runCLI(t, "-campaign", "testdata/smoke-campaign.json")

	dir := t.TempDir()
	s0 := filepath.Join(dir, "shard0.jsonl")
	s1 := filepath.Join(dir, "shard1.jsonl")
	runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-shard", "0/2", "-jsonl", s0)
	runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-shard", "1/2", "-jsonl", s1)
	merged := runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-merge", s1+","+s0)

	if !bytes.Equal(unsharded, merged) {
		t.Errorf("merged shard output differs from unsharded run\n--- unsharded ---\n%s\n--- merged ---\n%s",
			unsharded, merged)
	}
}

// TestMergeSkipsEmptyEntries: a trailing or doubled comma in -merge names
// no file; the empty entries are skipped like -coordinate skips them, and a
// list of nothing but commas is a plain error, not a stat of "".
func TestMergeSkipsEmptyEntries(t *testing.T) {
	unsharded := runCLI(t, "-campaign", "testdata/smoke-campaign.json")
	dir := t.TempDir()
	s0 := filepath.Join(dir, "shard0.jsonl")
	s1 := filepath.Join(dir, "shard1.jsonl")
	runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-shard", "0/2", "-jsonl", s0)
	runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-shard", "1/2", "-jsonl", s1)

	merged := runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-merge", s0+",, "+s1+",")
	if !bytes.Equal(unsharded, merged) {
		t.Errorf("merge with empty entries differs from unsharded run\n--- unsharded ---\n%s\n--- merged ---\n%s",
			unsharded, merged)
	}

	err := run([]string{"-campaign", "testdata/smoke-campaign.json", "-merge", " , "}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no inputs") {
		t.Errorf("-merge of only commas: got %v, want a \"no inputs\" error", err)
	}
}

func TestCampaignShardStreamsJSONLToStdout(t *testing.T) {
	out := runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-shard", "0/4")
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 2 { // 8 points, shard 0 of 4
		t.Fatalf("%d JSONL lines, want 2:\n%s", len(lines), out)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, `{"index":`) {
			t.Fatalf("not a JSONL record: %s", l)
		}
	}
}

func TestCampaignUnshardedHonorsJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "all.jsonl")
	out := runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-jsonl", path)
	if !strings.Contains(string(out), "wrote 8 of 8 points") {
		t.Fatalf("unsharded -jsonl not reported:\n%s", out)
	}
	var buf bytes.Buffer
	if err := run([]string{"-campaign", "testdata/smoke-campaign.json", "-merge", path}, &buf); err != nil {
		t.Fatalf("merging the unsharded JSONL: %v", err)
	}
}

func TestCampaignStoreRunMatchesPlainRun(t *testing.T) {
	plain := runCLI(t, "-campaign", "testdata/smoke-campaign.json")
	dir := filepath.Join(t.TempDir(), "store")
	stored := runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-store", dir)

	if !strings.Contains(string(stored), "ran 8 points, skipped 0 already complete (8/8 total)") {
		t.Fatalf("store status line missing:\n%s", stored)
	}
	// After the status line, the tables are byte-identical to a plain run.
	_, tables, ok := strings.Cut(string(stored), "\n")
	if !ok || tables != string(plain) {
		t.Errorf("store-backed tables differ from plain run\n--- plain ---\n%s\n--- stored ---\n%s", plain, tables)
	}

	// Resuming a complete store runs nothing and prints the same tables.
	resumed := runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-store", dir, "-resume")
	if !strings.Contains(string(resumed), "ran 0 points, skipped 8 already complete") {
		t.Fatalf("resume of complete store reran points:\n%s", resumed)
	}
	_, tables, _ = strings.Cut(string(resumed), "\n")
	if tables != string(plain) {
		t.Error("resumed tables differ from plain run")
	}
}

func TestCampaignStoreCrashResumeViaShards(t *testing.T) {
	unsharded := runCLI(t, "-campaign", "testdata/smoke-campaign.json")
	dir := filepath.Join(t.TempDir(), "store")

	// Shard 0 runs and is then "killed": its segment loses its final
	// record's tail. Shard 1 runs in the same store with -resume.
	runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-shard", "0/2", "-store", dir)
	seg := filepath.Join(dir, "segment-0000.jsonl")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	out := runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-shard", "0/2", "-store", dir, "-resume")
	if !strings.Contains(string(out), "ran 1 points, skipped 3 already complete") {
		t.Fatalf("torn segment not resumed:\n%s", out)
	}
	runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-shard", "1/2", "-store", dir, "-resume")

	// Merging the store directory prints exactly the unsharded tables.
	merged := runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-merge", dir)
	if !bytes.Equal(unsharded, merged) {
		t.Errorf("store-merged output differs from unsharded run\n--- unsharded ---\n%s\n--- merged ---\n%s",
			unsharded, merged)
	}
}

func TestMergeAcceptsDirectoryOfPlainShardFiles(t *testing.T) {
	unsharded := runCLI(t, "-campaign", "testdata/smoke-campaign.json")
	dir := t.TempDir()
	runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-shard", "0/2",
		"-jsonl", filepath.Join(dir, "s0.jsonl"))
	runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-shard", "1/2",
		"-jsonl", filepath.Join(dir, "s1.jsonl"))
	merged := runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-merge", dir)
	if !bytes.Equal(unsharded, merged) {
		t.Error("directory merge differs from unsharded run")
	}
}

func TestStoreFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	spec := "testdata/smoke-campaign.json"
	if err := run([]string{"-campaign", spec, "-resume"}, &buf); err == nil {
		t.Error("-resume without -store accepted")
	}
	if err := run([]string{"-campaign", spec, "-store", t.TempDir(), "-merge", "x"}, &buf); err == nil {
		t.Error("-store with -merge accepted")
	}
	if err := run([]string{"-campaign", spec, "-store", t.TempDir(), "-jsonl", "x"}, &buf); err == nil {
		t.Error("-store with -jsonl accepted")
	}
	if err := run([]string{"-experiment", "table1", "-store", "x"}, &buf); err == nil {
		t.Error("-store without -campaign accepted")
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := run([]string{"-campaign", spec, "-store", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-campaign", spec, "-store", dir}, &buf); err == nil {
		t.Error("re-creating an existing store without -resume accepted")
	}
	sharded := filepath.Join(t.TempDir(), "sharded")
	if err := run([]string{"-campaign", spec, "-shard", "0/2", "-store", sharded}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-campaign", spec, "-shard", "0/3", "-store", sharded, "-resume"}, &buf); err == nil {
		t.Error("resume with a shard layout mismatching the store manifest accepted")
	}
	if err := run([]string{"-campaign", spec, "-store", sharded, "-resume"}, &buf); err == nil {
		t.Error("unsharded resume of a multi-shard store accepted (could race live shard processes)")
	}
	if err := run([]string{"-campaign", spec, "-merge", t.TempDir()}, &buf); err == nil {
		t.Error("merging an empty directory accepted")
	}
}

func TestMergeRejectsStoreOfDifferentSpec(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-store", dir)

	// A spec differing only in seed has the same expansion shape, so only
	// the manifest digest can tell the results apart.
	other := filepath.Join(t.TempDir(), "other.json")
	data, err := os.ReadFile("testdata/smoke-campaign.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(other, bytes.Replace(data, []byte(`"seed": 9`), []byte(`"seed": 10`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-campaign", other, "-merge", dir}, &buf); err == nil {
		t.Error("merged a store written by a different spec")
	} else if !strings.Contains(err.Error(), "different campaign spec") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestHelpExitsCleanly(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-h"}, &buf); err != nil {
		t.Fatalf("-h returned %v", err)
	}
	if !strings.Contains(buf.String(), "-experiment") {
		t.Fatal("-h did not print usage")
	}
}

func TestRunRejectsUnknownExperimentAndBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "fig9"}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-campaign", "testdata/smoke-campaign.json", "-shard", "0/2", "-merge", "x"}, &buf); err == nil {
		t.Error("-shard with -merge accepted")
	}
	if err := run([]string{"-campaign", "no-such-file.json"}, &buf); err == nil {
		t.Error("missing spec file accepted")
	}
	if err := run([]string{"-experiment", "table1", "-shard", "0/4"}, &buf); err == nil {
		t.Error("-shard without -campaign accepted")
	}
}

// fleetOf starts n in-process ptgserve workers (the real service behind
// the real HTTP surface) and returns a -coordinate worker list.
func fleetOf(t *testing.T, n int) string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		s := ptgsched.NewService(ptgsched.ServiceOptions{Workers: 2})
		ts := httptest.NewServer(ptgsched.ServiceHandler(s))
		t.Cleanup(func() { ts.Close(); s.Close() })
		urls[i] = ts.URL
	}
	return strings.Join(urls, ",")
}

// TestCoordinateMatchesUnshardedOutput is the fleet-mode contract on the
// CLI surface: stdout of a coordinated 3-worker run is byte-identical to
// the unsharded local run.
func TestCoordinateMatchesUnshardedOutput(t *testing.T) {
	unsharded := runCLI(t, "-campaign", "testdata/smoke-campaign.json")
	coordinated := runCLI(t, "-campaign", "testdata/smoke-campaign.json",
		"-coordinate", fleetOf(t, 3), "-poll", "10ms")
	if !bytes.Equal(unsharded, coordinated) {
		t.Errorf("coordinated output differs from unsharded run\n--- unsharded ---\n%s\n--- coordinated ---\n%s",
			unsharded, coordinated)
	}
}

// TestCoordinateServesFleetStats spot-checks the -stats-addr endpoint
// shape by running a coordinated sweep with stats enabled (the endpoint
// lives only for the run, so the JSON contract is covered by the coord
// package; here the flag wiring must at least not break the run).
func TestCoordinateServesFleetStats(t *testing.T) {
	out := runCLI(t, "-campaign", "testdata/smoke-campaign.json",
		"-coordinate", fleetOf(t, 2), "-poll", "10ms", "-fleet-shards", "4",
		"-stats-addr", "127.0.0.1:0")
	if !strings.Contains(string(out), "Campaign") {
		t.Fatalf("coordinated run with -stats-addr printed no tables:\n%s", out)
	}
}

func TestCoordinateFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	spec := "testdata/smoke-campaign.json"
	if err := run([]string{"-coordinate", "h:1"}, &buf); err == nil {
		t.Error("-coordinate without -campaign accepted")
	}
	if err := run([]string{"-campaign", spec, "-fleet-shards", "2"}, &buf); err == nil {
		t.Error("-fleet-shards without -coordinate accepted")
	}
	if err := run([]string{"-campaign", spec, "-coordinate", "h:1", "-shard", "0/2"}, &buf); err == nil {
		t.Error("-coordinate with -shard accepted")
	}
	if err := run([]string{"-campaign", spec, "-coordinate", "h:1", "-store", t.TempDir()}, &buf); err == nil {
		t.Error("-coordinate with -store accepted")
	}
	if err := run([]string{"-campaign", spec, "-coordinate", " , "}, &buf); err == nil {
		t.Error("empty -coordinate worker list accepted")
	}
}

// TestEmptyEventTimelineReproducesStaticCampaigns is the dynamic
// machinery's hard guarantee at the CLI boundary: every checked-in paper
// campaign, reduced for test speed, prints byte-identical tables and
// writes the same JSONL records whether its spec omits the events block
// or declares it explicitly empty. An unsharded -jsonl file is fed
// straight from the sweep, so it is deterministic as a set of lines, not
// as a sequence (the stream-order contract, scenario.Expansion.Sweep):
// the files are compared as sorted line sets.
func TestEmptyEventTimelineReproducesStaticCampaigns(t *testing.T) {
	figs, err := filepath.Glob(filepath.Join("..", "..", "examples", "campaigns", "fig*.json"))
	if err != nil || len(figs) == 0 {
		t.Fatalf("no fig campaigns found: %v", err)
	}
	dir := t.TempDir()
	for _, fig := range figs {
		data, err := os.ReadFile(fig)
		if err != nil {
			t.Fatal(err)
		}
		var spec map[string]any
		if err := json.Unmarshal(data, &spec); err != nil {
			t.Fatalf("%s: %v", fig, err)
		}
		spec["reps"] = 2
		spec["nptgs"] = []int{2}

		base := filepath.Base(fig)
		write := func(name string, m map[string]any) string {
			out, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}
		static := write("static-"+base, spec)
		spec["events"] = map[string]any{}
		empty := write("empty-"+base, spec)

		// One shared JSONL path so the "wrote ... to <path>" stdout line
		// is identical too; the file is read back between the runs.
		jsonl := filepath.Join(dir, "out.jsonl")
		sOut := runCLI(t, "-campaign", static, "-jsonl", jsonl)
		sRecs, err := os.ReadFile(jsonl)
		if err != nil {
			t.Fatal(err)
		}
		eOut := runCLI(t, "-campaign", empty, "-jsonl", jsonl)
		eRecs, err := os.ReadFile(jsonl)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sOut, eOut) {
			t.Errorf("%s: tables differ with an explicitly empty events block\n--- static ---\n%s\n--- empty ---\n%s",
				base, sOut, eOut)
		}
		if !bytes.Equal(sortedLines(sRecs), sortedLines(eRecs)) {
			t.Errorf("%s: JSONL differs with an explicitly empty events block", base)
		}
	}
}

// sortedLines returns data with its lines in sorted order.
func sortedLines(data []byte) []byte {
	lines := bytes.SplitAfter(data, []byte("\n"))
	sort.Slice(lines, func(i, j int) bool { return bytes.Compare(lines[i], lines[j]) < 0 })
	return bytes.Join(lines, nil)
}

func TestCampaignCacheOutputIsByteIdentical(t *testing.T) {
	// The cache must be invisible on the wire: stdout of a cold cached
	// run, a warm cached run, and an uncached run are byte-identical.
	uncached := runCLI(t, "-campaign", "testdata/smoke-campaign.json")
	dir := filepath.Join(t.TempDir(), "cache")
	cold := runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-cache", dir)
	warm := runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-cache", dir)
	if !bytes.Equal(uncached, cold) {
		t.Errorf("cold cached output differs from uncached run\n--- uncached ---\n%s\n--- cold ---\n%s", uncached, cold)
	}
	if !bytes.Equal(uncached, warm) {
		t.Errorf("warm cached output differs from uncached run\n--- uncached ---\n%s\n--- warm ---\n%s", uncached, warm)
	}
}

func TestCampaignCachePoisonedEntryFallsBack(t *testing.T) {
	// Corrupt one cached record on disk; the re-run must detect it and
	// recompute, printing byte-identical output.
	uncached := runCLI(t, "-campaign", "testdata/smoke-campaign.json")
	dir := filepath.Join(t.TempDir(), "cache")
	runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-cache", dir)

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (err %v), want exactly 1", segs, err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digit inside the second record's makespan payload.
	lines := bytes.Split(b, []byte("\n"))
	i := bytes.Index(lines[2], []byte(`"makespan":[`))
	if i < 0 {
		t.Fatalf("no makespan field in record: %s", lines[2])
	}
	poison := append([]byte(nil), lines[2]...)
	for j := i; j < len(poison); j++ {
		if poison[j] >= '1' && poison[j] <= '8' {
			poison[j]++
			break
		}
	}
	lines[2] = poison
	if err := os.WriteFile(segs[0], bytes.Join(lines, []byte("\n")), 0o666); err != nil {
		t.Fatal(err)
	}

	again := runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-cache", dir)
	if !bytes.Equal(uncached, again) {
		t.Errorf("output after cache poisoning differs from uncached run\n--- uncached ---\n%s\n--- poisoned ---\n%s", uncached, again)
	}
}

func TestCampaignCacheSharedAcrossShards(t *testing.T) {
	// Shards sharing one cache dir: running all shards cold, then the
	// unsharded campaign warm, must print the unsharded golden bytes.
	dir := filepath.Join(t.TempDir(), "cache")
	s0 := filepath.Join(t.TempDir(), "s0.jsonl")
	s1 := filepath.Join(t.TempDir(), "s1.jsonl")
	runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-shard", "0/2", "-jsonl", s0, "-cache", dir)
	runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-shard", "1/2", "-jsonl", s1, "-cache", dir)

	uncached := runCLI(t, "-campaign", "testdata/smoke-campaign.json")
	warm := runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-cache", dir)
	if !bytes.Equal(uncached, warm) {
		t.Errorf("warm-from-shards output differs\n--- uncached ---\n%s\n--- warm ---\n%s", uncached, warm)
	}
}
