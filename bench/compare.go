package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res resultsFile
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// verdict judges one end-to-end metric of B against the same metric of
// the base A. worse is how much worse B's median is, as a share of A's
// median (negative when B is better). When either set's own run-to-run
// spread is wider than the bound, the two cannot be told apart at that
// bound and the pair is unresolved, whichever way the medians fall.
func verdict(d metricDef, a, b *series) (worse float64, v string) {
	worse = (b.Median - a.Median) / a.Median
	if d.higherBetter {
		worse = -worse
	}
	switch {
	case math.Max(a.Spread, b.Spread) > d.bound:
		return worse, "unresolved"
	case worse > d.bound:
		return worse, "worse"
	}
	return worse, "ok"
}

// compareFiles prints, per (metric, workload), both medians, their ratio
// with its base, the bound and ok / worse / unresolved. It returns 1 if
// any pair is worse.
func compareFiles(pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("A (base): %s  %d runs from seed %d  %s, W=%d\n", pathA, a.Runs, a.Seed, a.Host.CPUModel, a.Host.W)
	fmt.Printf("B:        %s  %d runs from seed %d  %s, W=%d\n", pathB, b.Runs, b.Seed, b.Host.CPUModel, b.Host.W)
	fmt.Printf("\n%-18s %-16s %13s %13s %9s %8s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "B÷A", "spreadA", "spreadB", "bound", "verdict")
	code := 0
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			fmt.Printf("%-18s missing from one file\n", name)
			code = 1
			continue
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Printf("%-18s failed operations: A %d, B %d\n", name, wa.Failed, wb.Failed)
			code = 1
		}
		unresolved := make(map[string]bool)
		for _, u := range append(append([]string(nil), wa.Unresolved...), wb.Unresolved...) {
			unresolved[u] = true
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			if sa == nil || sb == nil || sa.Median == 0 {
				fmt.Printf("%-18s %-16s absent\n", name, d.name)
				continue
			}
			worse, v := verdict(d, sa, sb)
			if unresolved[d.name] {
				v = "unresolved"
			}
			if v == "worse" {
				code = 1
			}
			fmt.Printf("%-18s %-16s %13.6g %13.6g %9.4f %7.2f%% %7.2f%% %7.0f%%  %s (%+.2f%% worse)\n",
				name, d.name, sa.Median, sb.Median, sb.Median/sa.Median, 100*sa.Spread, 100*sb.Spread, 100*d.bound, v, 100*worse)
		}
	}
	return code
}
