// Command ptgtrace generates, inspects and replays submission workloads
// for the online scheduler (the §8 dynamic-arrivals extension).
//
// Usage:
//
//	ptgtrace -mode generate -family random -count 10 -process poisson -rate 0.2 -out trace.json
//	ptgtrace -mode inspect -in trace.json
//	ptgtrace -mode replay -in trace.json -platform rennes -strategy WPS-width -family fft
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"ptgsched"
	"ptgsched/internal/cli"
	"ptgsched/internal/metrics"
)

func main() { cli.Main("ptgtrace", run) }

// run executes one ptgtrace invocation, writing its report to w. It is the
// testable core behind main.
func run(argv []string, w io.Writer) error {
	fs := flag.NewFlagSet("ptgtrace", flag.ContinueOnError)
	var (
		mode         = fs.String("mode", "generate", "generate, inspect or replay")
		familyName   = fs.String("family", "random", "PTG family: random, fft or strassen")
		count        = fs.Int("count", 10, "number of applications")
		processName  = fs.String("process", "poisson", "arrival process: burst, poisson or uniform")
		rate         = fs.Float64("rate", 0.2, "arrival rate in apps/second")
		seed         = fs.Int64("seed", 1, "random seed")
		in           = fs.String("in", "", "input trace file")
		out          = fs.String("out", "", "output trace file (default stdout)")
		platformName = fs.String("platform", "rennes", "platform for replay")
		strategyName = fs.String("strategy", "WPS-work", "strategy for replay: S, ES, PS-{cp,width,work} or WPS-{cp,width,work}")
		mu           = fs.Float64("mu", -1, "µ for WPS strategies on replay (default: the paper's calibrated value for -family)")
	)
	if ok, err := cli.Parse(fs, argv, w); !ok {
		return err
	}

	// Each mode reads only its own flags.
	modes := map[string]struct {
		reads []string
		run   func() error
	}{
		"generate": {[]string{"mode", "family", "count", "process", "rate", "seed", "out"},
			func() error { return generate(w, *familyName, *count, *processName, *rate, *seed, *out) }},
		"inspect": {[]string{"mode", "in"},
			func() error { return inspect(w, *in) }},
		"replay": {[]string{"mode", "in", "platform", "strategy", "mu", "family"},
			func() error { return replay(w, *in, *platformName, *strategyName, *mu, *familyName) }},
	}
	name := strings.ToLower(*mode)
	m, ok := modes[name]
	if !ok {
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if err := cli.Scope(fs, "-mode "+name, m.reads...); err != nil {
		return err
	}
	return m.run()
}

func generate(w io.Writer, familyName string, count int, processName string, rate float64, seed int64, out string) error {
	family, err := ptgsched.FamilyByName(familyName)
	if err != nil {
		return err
	}
	process, err := ptgsched.ProcessByName(processName)
	if err != nil {
		return err
	}
	arrivals := ptgsched.GenerateWorkload(ptgsched.WorkloadSpec{
		Family: family, Count: count, Process: process, Rate: rate,
	}, rand.New(rand.NewSource(seed)))

	dst := w
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	return ptgsched.WriteWorkloadTrace(dst, arrivals)
}

func readTrace(in string) ([]ptgsched.Arrival, error) {
	if in == "" {
		return nil, fmt.Errorf("-in is required")
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ptgsched.ReadWorkloadTrace(f)
}

func inspect(w io.Writer, in string) error {
	arrivals, err := readTrace(in)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-4s %10s %-28s %6s %6s %6s %12s\n",
		"app", "arrival", "graph", "tasks", "depth", "width", "work (GF)")
	for i, a := range arrivals {
		s := a.Graph.ComputeStats()
		fmt.Fprintf(w, "%-4d %10.1f %-28s %6d %6d %6d %12.0f\n",
			i, a.At, a.Graph.Name, s.Tasks, s.Depth, s.MaxWidth, s.TotalWorkG)
	}
	return nil
}

func replay(w io.Writer, in, platformName, strategyName string, mu float64, familyName string) error {
	arrivals, err := readTrace(in)
	if err != nil {
		return err
	}
	pf, err := ptgsched.PlatformByName(platformName)
	if err != nil {
		return err
	}
	// The trace format does not record its family; -family tells the
	// resolver which calibrated µ default applies (WPS-width differs on
	// FFT workloads), and -mu overrides it outright.
	family, err := ptgsched.FamilyByName(familyName)
	if err != nil {
		return err
	}
	strat, err := ptgsched.StrategyByName(strategyName, mu, family)
	if err != nil {
		return err
	}

	res := ptgsched.ScheduleOnline(pf, arrivals, ptgsched.OnlineOptions{Strategy: strat})
	fmt.Fprintf(w, "platform: %s, strategy: %s\n\n", pf, strat)
	fmt.Fprintf(w, "%-4s %10s %10s %12s %12s\n", "app", "arrival", "start", "completion", "flow (s)")
	flows := make([]float64, len(res.Apps))
	for i, app := range res.Apps {
		flows[i] = app.FlowTime()
		fmt.Fprintf(w, "%-4d %10.1f %10.1f %12.1f %12.1f\n",
			i, app.SubmittedAt, app.StartedAt, app.CompletedAt, flows[i])
	}
	fmt.Fprintf(w, "\nmean flow time: %.1f s, last completion: %.1f s, rebalances: %d\n",
		metrics.Mean(flows), res.Makespan, res.Rebalances)
	return nil
}
