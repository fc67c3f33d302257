package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime"
	"testing"
)

// tinyConfig is a run at smoke-test scale: every workload shrunk, one
// pair of passes.
func tinyConfig(t *testing.T, workload string) config {
	dir := t.TempDir()
	return config{
		workload: workload, seed: 7, seconds: 0.01, width: loadWidth(),
		tmp: dir, out: dir, tiny: true, minPairs: 1,
	}
}

func checkMetrics(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		if !ok {
			if runtime.GOOS != "linux" && (d.name == "bench.cpu_ms_per_op" || d.name == "peak_rss_mb") {
				continue // absent by design where getrusage and /proc are
			}
			t.Errorf("%s: metric %s is missing", rep.Workload, d.name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %v is not finite", rep.Workload, d.name, m.Value)
		}
		if m.Unit != d.unit || m.Unit == "" {
			t.Errorf("%s: metric %s has unit %q, want %q", rep.Workload, d.name, m.Unit, d.unit)
		}
	}
	if len(rep.Metrics) > len(defs) {
		t.Errorf("%s: %d metrics reported, %d defined", rep.Workload, len(rep.Metrics), len(defs))
	}
}

// TestSmoke runs the four workloads and a traced run at tiny scale at
// GOMAXPROCS 1, 2 and 4: every named metric present, finite and carrying
// its unit, no failed operation, the staged compositions of the traced
// run bit-equal to the library's own results.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for i, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, name := range workloadNames {
			rep, err := runTimed(tinyConfig(t, name))
			if err != nil {
				t.Fatalf("GOMAXPROCS %d, %s: %v", procs, name, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 || rep.ResultDigest == "" {
				t.Errorf("GOMAXPROCS %d, %s: correct %v, failed %d of %d, digest %q",
					procs, name, rep.Correct, rep.Failed, rep.Attempted, rep.ResultDigest)
			}
			checkMetrics(t, rep, endToEnd)
			for _, d := range endToEnd {
				if m, ok := rep.Metrics[d.name]; ok && m.Value <= 0 {
					t.Errorf("GOMAXPROCS %d, %s: end-to-end metric %s = %v, want positive", procs, name, d.name, m.Value)
				}
			}
			if (procs == 1) != (len(rep.Unresolved) > 0) {
				t.Errorf("GOMAXPROCS %d, %s: unresolved = %v", procs, name, rep.Unresolved)
			}
		}
		// One traced run per core count, a different named workload each.
		cfg := tinyConfig(t, workloadNames[i])
		cfg.seconds = 1
		rep, err := runTraced(cfg)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d, traced %s: %v", procs, cfg.workload, err)
		}
		checkMetrics(t, rep, perLayer)
		if _, err := os.Stat(rep.TraceFile); err != nil {
			t.Errorf("traced %s: no trace file: %v", cfg.workload, err)
		}
		if share := rep.Metrics["alloc.share"].Value; cfg.workload == "campaign_static" && share <= 0 {
			t.Errorf("traced campaign_static: alloc.share = %v", share)
		}
	}
}

// TestCorruptOracleFails plants a wrong expected value in each workload's
// oracle: the correctness check must fire, count failed operations and
// make the run an error.
func TestCorruptOracleFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	for _, name := range workloadNames {
		cfg := tinyConfig(t, name)
		cfg.corrupt = true
		rep, err := runTimed(cfg)
		if !errors.Is(err, errIncorrect) {
			t.Fatalf("%s: err = %v, want errIncorrect", name, err)
		}
		if rep == nil || rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: a corrupted oracle went unnoticed: %+v", name, rep)
		}
	}
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json to the metric and
// workload tables the code reports from.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in code", i, w.Name, workloadNames[i])
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(file.EndToEnd), len(endToEnd))
	}
	for i, m := range file.EndToEnd {
		d := endToEnd[i]
		better := "lower"
		if d.higherBetter {
			better = "higher"
		}
		if m.Name != d.name || m.Unit != d.unit || m.Better != better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, m, d)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(file.PerLayer), len(perLayer))
	}
	for i, m := range file.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code has %+v", i, m, d)
		}
	}
}

// TestQuartilesMatchPython pins summarize to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 {
		t.Errorf("summarize(1..10) = %+v, want quartiles 2.75, 5.5, 8.25", s)
	}
	if got := summarize([]float64{3, 1, 2}); got.Q1 != 1 || got.Median != 2 || got.Q3 != 3 {
		t.Errorf("summarize(1,2,3) = %+v, want quartiles 1, 2, 3", got)
	}
}

func TestCompareVerdict(t *testing.T) {
	mk := func(median, spread float64) *series {
		return &series{summary: summary{Median: median}, Spread: spread}
	}
	rate := metricDef{name: "ops_per_s", higherBetter: true, bound: 0.10}
	cost := metricDef{name: "peak_rss_mb", bound: 0.10}
	for _, tc := range []struct {
		d    metricDef
		a, b *series
		want string
	}{
		{rate, mk(100, 0.02), mk(95, 0.02), "ok"},
		{rate, mk(100, 0.02), mk(85, 0.02), "worse"},
		{rate, mk(100, 0.02), mk(130, 0.02), "ok"},
		{cost, mk(10, 0.02), mk(11.5, 0.02), "worse"},
		{cost, mk(10, 0.02), mk(8, 0.02), "ok"},
		{cost, mk(10, 0.15), mk(11.5, 0.02), "unresolved"},
		{rate, mk(100, 0.02), mk(99, 0.2), "unresolved"},
	} {
		if _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: A %.4g (spread %.2f) vs B %.4g (spread %.2f) = %s, want %s",
				tc.d.name, tc.a.Median, tc.a.Spread, tc.b.Median, tc.b.Spread, got, tc.want)
		}
	}
}
