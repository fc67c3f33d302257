package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// series is one end-to-end metric over a set of runs on consecutive seeds.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	summary
	// Spread is the interquartile range over the median: what the
	// acceptance protocol compares with the metric's bound.
	Spread float64 `json:"spread"`
}

// workloadResults is one workload's part of a results file.
type workloadResults struct {
	Digests    []string           `json:"result_digests"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Passes1W   []int              `json:"passes_1w"`
	PassesW    []int              `json:"passes_w"`
	EndToEnd   map[string]*series `json:"end_to_end"`
	PerLayer   map[string]metric  `json:"per_layer"`
	Unresolved []string           `json:"unresolved,omitempty"`
}

// resultsFile is what -workload all writes and -compare reads: a complete
// set of runs with the host they were taken on.
type resultsFile struct {
	Host      hostInfo                    `json:"host"`
	Seed      int64                       `json:"seed"`
	Runs      int                         `json:"runs"`
	Seconds   float64                     `json:"seconds"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

// runAll runs every workload — runs timed runs on seeds seed, seed+1, …
// and one traced run — each in a process of its own, so peak_rss_mb
// belongs to one workload, and writes OUT/results.json.
func runAll(seed int64, seconds float64, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	res := resultsFile{Seed: seed, Runs: runs, Seconds: seconds, Workloads: make(map[string]*workloadResults)}
	code := 0
	child := func(name string, s int64, trace int) *report {
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d: %v\n", name, s, trace, err)
			code = 1
		}
		kind := "timed"
		if trace == 1 {
			kind = "traced"
		}
		b, err := os.ReadFile(filepath.Join(out, fmt.Sprintf("%s-%s-seed%d.json", name, kind, s)))
		if err != nil {
			return nil
		}
		var rep report
		if json.Unmarshal(b, &rep) != nil {
			return nil
		}
		return &rep
	}
	for _, name := range workloadNames {
		wr := &workloadResults{EndToEnd: make(map[string]*series)}
		res.Workloads[name] = wr
		for r := 0; r < runs; r++ {
			rep := child(name, seed+int64(r), 0)
			if rep == nil {
				code = 1
				continue
			}
			res.Host = rep.Host
			wr.Digests = append(wr.Digests, rep.ResultDigest)
			wr.Attempted += rep.Attempted
			wr.Failed += rep.Failed
			wr.Passes1W = append(wr.Passes1W, rep.Passes1W)
			wr.PassesW = append(wr.PassesW, rep.PassesW)
			wr.Unresolved = rep.Unresolved
			for metricName, m := range rep.Metrics {
				if wr.EndToEnd[metricName] == nil {
					wr.EndToEnd[metricName] = &series{Unit: m.Unit}
				}
				wr.EndToEnd[metricName].Values = append(wr.EndToEnd[metricName].Values, m.Value)
			}
		}
		for _, s := range wr.EndToEnd {
			s.summary = summarize(s.Values)
			s.Spread = s.summary.spread()
		}
		if rep := child(name, seed, 1); rep != nil {
			wr.PerLayer = rep.Metrics
			wr.Attempted += rep.Attempted
			wr.Failed += rep.Failed
			wr.Unresolved = append(wr.Unresolved, rep.Unresolved...)
		} else {
			code = 1
		}
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(out, "results.json"), append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	printSpreads(res)
	fmt.Println("results:", filepath.Join(out, "results.json"))
	return code
}

// printSpreads prints, per workload and end-to-end metric, the median over
// the runs and the spread next to the metric's bound.
func printSpreads(res resultsFile) {
	fmt.Printf("\n%-18s %-16s %14s %-6s %8s %8s  %s\n", "workload", "metric", "median", "unit", "spread", "bound", "runs")
	for _, name := range workloadNames {
		wr := res.Workloads[name]
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.name]
			if s == nil {
				fmt.Printf("%-18s %-16s %14s\n", name, d.name, "absent")
				continue
			}
			fmt.Printf("%-18s %-16s %14.6g %-6s %7.2f%% %7.0f%%  %d\n",
				name, d.name, s.Median, s.Unit, 100*s.Spread, 100*d.bound, s.N)
		}
	}
}
