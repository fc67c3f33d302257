// Command bench is the repository's benchmark: four named workloads
// measured end to end, and a traced run that measures every layer from
// outside, by timing calls into the packages' public functions. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	bash bench/run.sh --workload campaign_static --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --workload all --runs 10 --out DIR
//	bash bench/run.sh --compare A/results.json B/results.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "all", "one of "+strings.Join(workloadNames, ", ")+", or all")
		seed    = flag.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 12, "how long one run measures")
		trace   = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "out"), "directory for result and trace files")
		runs    = flag.Int("runs", 1, "with -workload all: timed runs per workload, on seeds seed, seed+1, ...")
		compare = flag.Bool("compare", false, "compare two results.json files given as arguments: A (base) and B")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two results.json files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", flag.Args())
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *runs, *out)
	}
	known := false
	for _, n := range workloadNames {
		known = known || n == *name
	}
	if !known || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q, or -trace not 0/1, or -seconds not positive\n", *name)
		return 2
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cfg := config{
		workload: *name, seed: *seed, seconds: *seconds, width: loadWidth(),
		tmp: os.TempDir(), out: *out, minPairs: 3,
	}
	run := runTimed
	if *trace == 1 {
		run = runTraced
	}
	rep, err := run(cfg)
	if rep == nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	path, werr := writeReport(cfg.out, rep)
	if werr != nil {
		fmt.Fprintln(os.Stderr, "bench:", werr)
		return 2
	}
	printReport(rep, path)
	b, _ := json.Marshal(rep.resultLine) // plain data, cannot fail
	fmt.Println(string(b))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if errors.Is(err, errIncorrect) {
			return 1
		}
		return 2
	}
	return 0
}

// printReport prints every metric by name with its unit, and beside each
// per-pass metric the quartiles and pass count behind it.
func printReport(rep *report, path string) {
	kind := "timed"
	if rep.Trace {
		kind = "traced"
	}
	h := rep.Host
	fmt.Printf("%s  %s run  seed %d  W=%d (nproc %d, GOMAXPROCS %d)  %s  %s\n",
		rep.Workload, kind, rep.Seed, h.W, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel)
	if !rep.Trace {
		fmt.Printf("passes: %d at 1 worker, %d at W   result_digest %s\n", rep.Passes1W, rep.PassesW, rep.ResultDigest)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("  %-34s %14.6g %-6s", name, m.Value, m.Unit)
		if s, ok := rep.PerPass[name]; ok && s.N > 1 {
			fmt.Printf("  passes: min %.6g q1 %.6g median %.6g q3 %.6g max %.6g n %d", s.Min, s.Q1, s.Median, s.Q3, s.Max, s.N)
		}
		if raw, ok := rep.Raw[name]; ok {
			fmt.Printf("  raw %.6g", raw)
		}
		fmt.Println()
	}
	for _, name := range rep.Unresolved {
		fmt.Printf("  %s: unresolved on this host (W = 1)\n", name)
	}
	if !rep.Trace {
		fmt.Printf("  host.calib_ms %.4g (reference %.4g): timing metrics are scaled to the reference host speed\n",
			rep.Raw["host.calib_ms"], calibRefMS)
	}
	fmt.Printf("attempted %d  failed %d  correct %v\n", rep.Attempted, rep.Failed, rep.Correct)
	if rep.TraceFile != "" {
		fmt.Println("trace:", rep.TraceFile)
	}
	fmt.Println("report:", path)
}
