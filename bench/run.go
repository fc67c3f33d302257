package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The four workload names are fixed; later issues cite them.
var workloadNames = []string{"campaign_static", "campaign_dynamic", "service_crowded", "store_warm"}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	width    int    // W
	tmp      string // parent of the run's temp dirs
	out      string // where result and trace files go
	// tiny shrinks every workload to smoke-test size; corrupt plants a
	// wrong expected value in the oracle. Only the smoke test sets them.
	tiny, corrupt bool
	minPairs      int
}

func newWorkload(cfg config) runner {
	switch cfg.workload {
	case "campaign_static":
		return newCampaign(cfg, staticSpec(cfg.seed, cfg.tiny))
	case "campaign_dynamic":
		return newCampaign(cfg, dynamicSpec(cfg.seed, cfg.tiny))
	case "service_crowded":
		return newServiceWorkload(cfg)
	case "store_warm":
		return newStoreWorkload(cfg)
	}
	panic("unknown workload " + cfg.workload) // names are checked when flags are parsed
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one run's result file: the result line plus what is needed
// to interpret it.
type report struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Trace        bool     `json:"trace"`
	Seconds      float64  `json:"seconds"`
	Host         hostInfo `json:"host"`
	Passes1W     int      `json:"passes_1w"`
	PassesW      int      `json:"passes_w"`
	ResultDigest string   `json:"result_digest"`
	resultLine
	// PerPass holds, for each metric computed per pass, the order
	// statistics of the passes behind the reported median.
	PerPass map[string]summary `json:"per_pass,omitempty"`
	// Raw holds the timing metrics before host-speed normalisation.
	Raw map[string]float64 `json:"raw,omitempty"`
	// Unresolved names metrics that carry no information on this host:
	// with W == 1 the W-worker numbers repeat the 1-worker ones.
	Unresolved []string `json:"unresolved,omitempty"`
	TraceFile  string   `json:"trace_file,omitempty"`
}

// errIncorrect marks a run whose outputs were wrong: the result line is
// still printed (correct:false) and the command exits non-zero.
var errIncorrect = errors.New("outputs incorrect")

// runTimed is the untraced run: set-up (three times, median reported),
// alternating passes for cfg.seconds, every end-to-end metric.
func runTimed(cfg config) (*report, error) {
	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Host: fingerprint(cfg.tmp),
		resultLine: resultLine{Metrics: make(map[string]metric)},
		PerPass:    make(map[string]summary), Raw: make(map[string]float64),
	}
	w, setups, err := setUp(func() runner { return newWorkload(cfg) }, cfg.width)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.teardown()
	samples, err := measure(w, cfg.width, cfg.seconds, cfg.minPairs)
	if err != nil && !errors.Is(err, errDigest) {
		return nil, err
	}
	digestErr := err

	var ops, ops1w, rawOps, rawOps1w, allocs, bytes, calib []float64
	for _, s := range samples {
		rep.Attempted += s.ops
		rep.Failed += s.failed
		n := float64(s.ops)
		bytes = append(bytes, float64(s.bytes)/n)
		calib = append(calib, s.calib)
		if s.workers == 1 {
			rep.Passes1W++
			ops1w = append(ops1w, n/s.normSeconds())
			rawOps1w = append(rawOps1w, n/s.wall.Seconds())
			allocs = append(allocs, float64(s.mallocs)/n)
		}
		if s.workers == cfg.width {
			if cfg.width > 1 {
				rep.PassesW++
			}
			ops = append(ops, n/s.normSeconds())
			rawOps = append(rawOps, n/s.wall.Seconds())
		}
	}
	if len(samples) > 0 {
		rep.ResultDigest = samples[0].digest
	}
	// Timing metrics report the fastest pass, counts the median pass:
	// interference from the host's other tenants only ever slows a pass
	// down, so the fastest of a run's passes is the steadiest estimate of
	// what the program costs (README.md has the measurements), while a
	// count is exact up to a stray runtime allocation on either side.
	set := func(name string, values []float64, pick func(summary) float64) {
		if len(values) == 0 {
			return // absent, never zero
		}
		sum := summarize(values)
		rep.PerPass[name] = sum
		rep.Metrics[name] = metric{pick(sum), endToEndUnits[name]}
	}
	highest := func(s summary) float64 { return s.Max }
	middle := func(s summary) float64 { return s.Median }
	set("ops_per_s", ops, highest)
	set("ops_per_s_1w", ops1w, highest)
	set("allocs_per_op", allocs, middle)
	set("bytes_per_op", bytes, middle)
	set("setup_s", setups, middle)
	if mb, ok := peakRSSMB(); ok {
		rep.Metrics["peak_rss_mb"] = metric{mb, "MB"}
	}
	rep.Raw["ops_per_s"], rep.Raw["ops_per_s_1w"] = summarize(rawOps).Max, summarize(rawOps1w).Max
	rep.Raw["host.calib_ms"] = median(calib)
	if cfg.width == 1 {
		rep.Unresolved = []string{"ops_per_s"}
	}
	rep.Correct = digestErr == nil && rep.Failed == 0
	if digestErr != nil {
		return rep, fmt.Errorf("%w: %v", errIncorrect, digestErr)
	}
	if !rep.Correct {
		return rep, fmt.Errorf("%w: %d of %d operations failed", errIncorrect, rep.Failed, rep.Attempted)
	}
	return rep, nil
}

// runTraced is the traced run, kept apart from the timed ones so tracing
// never touches an end-to-end number. Every workload is set up, run
// untraced (the named one at both 1 and W workers), and then has a
// slice of its ops re-run stage by stage under the tracer: the named
// workload for up to a third of cfg.seconds, the others for their
// minimum. A layer the named workload never enters is thereby still
// measured, on the workload that does, in every traced run. The fleet
// pass and the micro probes complete the per-layer metrics.
func runTraced(cfg config) (*report, error) {
	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Trace: true, Seconds: cfg.seconds, Host: fingerprint(cfg.tmp),
		resultLine: resultLine{Metrics: make(map[string]metric)},
	}
	in := layerInputs{width: cfg.width, untraced: make(map[string][]sample)}
	names := []string{cfg.workload}
	for _, name := range workloadNames {
		if name != cfg.workload {
			names = append(names, name)
		}
	}
	for _, name := range names {
		wcfg := cfg
		wcfg.workload = name
		budget := time.Duration(0)
		if name == cfg.workload {
			budget = time.Duration(cfg.seconds / 3 * float64(time.Second))
		}
		sl, untraced, err := traceWorkload(wcfg, budget)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		in.slices = append(in.slices, sl)
		in.untraced[name] = untraced
		for _, s := range untraced {
			rep.Attempted += s.ops
			rep.Failed += s.failed
			in.calib = append(in.calib, s.calib)
		}
		if name == cfg.workload && len(untraced) > 0 {
			rep.ResultDigest = untraced[0].digest
		}
	}
	fleet, err := fleetPass(cfg, newTracer())
	if err != nil {
		return nil, fmt.Errorf("fleet pass: %w", err)
	}
	micro, err := microProbes(cfg, newTracer())
	if err != nil {
		return nil, fmt.Errorf("micro probes: %w", err)
	}
	in.slices = append(in.slices, fleet, micro)
	tf := traceFile{Workload: cfg.workload, Seed: cfg.seed, Host: rep.Host}
	for _, sl := range in.slices {
		rep.Attempted += sl.ops
		rep.Failed += sl.failed
		tf.Slices = append(tf.Slices, traceFileSlice{Workload: sl.workload, Ops: sl.ops, Spans: sl.spans})
	}
	rep.Metrics = layerMetrics(in)
	if cfg.width == 1 {
		rep.Unresolved = []string{"scenario.sweep.efficiency"}
	}
	if rep.TraceFile, err = writeTraceFile(cfg.out, tf); err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0
	if !rep.Correct {
		return rep, fmt.Errorf("%w: %d of %d operations failed", errIncorrect, rep.Failed, rep.Attempted)
	}
	return rep, nil
}

// traceWorkload sets one workload up, runs it untraced (twice at W, and
// for the named workload — the one with a budget — once at 1 worker
// before that), traces a slice of it, and tears it down.
func traceWorkload(cfg config, budget time.Duration) (slice, []sample, error) {
	w := newWorkload(cfg)
	defer w.teardown()
	if err := w.setup(); err != nil {
		return slice{}, nil, fmt.Errorf("set-up: %w", err)
	}
	sides := []int{cfg.width, cfg.width}
	if budget > 0 && cfg.width > 1 {
		sides = []int{1, cfg.width, cfg.width}
	}
	var untraced []sample
	for _, workers := range sides {
		s, err := measureOnce(w, workers)
		if err != nil {
			return slice{}, nil, err
		}
		untraced = append(untraced, s)
	}
	sl, err := w.traceSlice(newTracer(), budget)
	return sl, untraced, err
}

// writeReport stores a run's report as OUT/<workload>-<timed|traced>-seed<N>.json.
func writeReport(dir string, rep *report) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	kind := "timed"
	if rep.Trace {
		kind = "traced"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", rep.Workload, kind, rep.Seed))
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
