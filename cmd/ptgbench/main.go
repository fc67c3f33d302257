// Command ptgbench regenerates the tables and figures of the paper's
// evaluation (§7) and runs declarative campaign sweeps. Each experiment
// prints the same rows/series the paper reports; absolute values depend on
// the simulated substrate, the *shape* (strategy rankings, trends in the
// number of PTGs, the µ trade-off) is the reproduction target.
//
// Usage:
//
//	ptgbench -experiment table1
//	ptgbench -experiment fig2 -reps 25 -seed 42
//	ptgbench -experiment fig3 -csv fig3.csv
//	ptgbench -experiment mu-calibration
//	ptgbench -experiment ablation
//
// Campaign mode sweeps a declarative scenario spec (see examples/ and the
// README's campaign section). The pipeline is streaming end to end:
// points are generated lazily from their global index, completed results
// feed the incremental aggregator as they arrive, and the spec's
// cardinality (computed arithmetically before anything expands) plus
// periodic progress — per shard, read off the store's done bitmap when a
// store is attached — are reported to stderr, so stdout stays exactly the
// tables/JSONL. An unsharded run prints the aggregated summary tables; a
// -shard run streams its shard's per-point results as JSONL (to -jsonl or
// stdout); -merge recombines shard files — or whole directories of
// *.jsonl segments, including store directories — into the same summary
// the unsharded run prints, bit-identically:
//
//	ptgbench -campaign examples/campaign.json
//	ptgbench -campaign examples/campaign.json -shard 0/4 -jsonl shard0.jsonl
//	ptgbench -campaign examples/campaign.json -merge shard0.jsonl,shard1.jsonl,shard2.jsonl,shard3.jsonl
//
// With -store every completed point is appended to a durable,
// crash-tolerant store directory (see internal/store and
// docs/ARCHITECTURE.md); a killed sweep resumes exactly where it stopped
// with -resume and still aggregates bit-identically:
//
//	ptgbench -campaign examples/campaign.json -store run/          # killed...
//	ptgbench -campaign examples/campaign.json -store run/ -resume  # ...continues
//	ptgbench -campaign examples/campaign.json -shard 0/2 -store run/
//	ptgbench -campaign examples/campaign.json -shard 1/2 -store run/ -resume
//	ptgbench -campaign examples/campaign.json -merge run/          # final tables
//
// Fleet mode (-coordinate) distributes a campaign over remote ptgserve
// workers with fault tolerance: shard leases are dispatched over the
// /v1/jobs API, transient failures retried with capped backoff, dead or
// stalled workers' leases reassigned to survivors, and the deduplicated
// streaming merge prints tables bit-identical to a local run. The fleet
// narrative and robustness counters go to stderr; -stats-addr serves them
// as JSON while the campaign runs:
//
//	ptgbench -campaign examples/campaign.json \
//	         -coordinate host1:8080,host2:8080,host3:8080 \
//	         -fleet-shards 6 -stats-addr :9090
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ptgsched"
	"ptgsched/internal/cli"
	"ptgsched/internal/metrics"
)

func main() { cli.Main("ptgbench", run) }

// run executes one ptgbench invocation, writing its report to w. It is
// the testable core behind main.
func run(argv []string, w io.Writer) error {
	fs := flag.NewFlagSet("ptgbench", flag.ContinueOnError)
	var (
		name         = fs.String("experiment", "table1", "table1, fig1, fig2, fig3, fig4, fig5, mu-calibration, ablation or dynamic")
		campaignPath = fs.String("campaign", "", "run the declarative campaign spec at this path instead of a named experiment")
		shard        = fs.String("shard", "", "campaign: run only shard i/n and stream per-point JSONL results")
		jsonl        = fs.String("jsonl", "", "campaign: write the shard's JSONL results to this file (default stdout)")
		merge        = fs.String("merge", "", "campaign: comma-separated shard JSONL files or directories of *.jsonl segments to aggregate instead of running")
		storeDir     = fs.String("store", "", "campaign: append results to a durable store at this directory (crash-safe; resumable)")
		cacheDir     = fs.String("cache", "", "campaign: content-addressed result cache directory (created if missing) consulted before computing points and published after; shared safely across processes")
		resume       = fs.Bool("resume", false, "campaign: open the existing -store and run only its pending points")
		queryFlag    = fs.Bool("query", false, "campaign: read the -store back through the indexed query path instead of sweeping")
		qFamily      = fs.String("family", "", "query: only cells of this PTG family (random, fft, strassen)")
		qStrategy    = fs.String("strategy", "", "query: project results to this strategy's column (paper name, e.g. WPS-work)")
		qFrom        = fs.Int("from", 0, "query: first global point index of the selection")
		qTo          = fs.Int("to", -1, "query: end of the selection, exclusive (default: end of the expansion; 0 is the empty range)")
		qFormat      = fs.String("format", "table", "query: table (aggregate rows) or jsonl (matching records)")
		qFullScan    = fs.Bool("fullscan", false, "query: bypass the segment indexes and decode every record (differential check)")
		coordinate   = fs.String("coordinate", "", "campaign: comma-separated ptgserve worker addresses to distribute the sweep over (fault-tolerant fleet mode)")
		fleetShards  = fs.Int("fleet-shards", 0, "coordinate: shard leases to split the campaign into (default: one per worker)")
		pollEvery    = fs.Duration("poll", 0, "coordinate: worker progress poll interval (default: 500ms)")
		stallAfter   = fs.Duration("stall-timeout", 0, "coordinate: reassign a lease whose progress is frozen this long (default: 2m)")
		statsAddr    = fs.String("stats-addr", "", "coordinate: also serve the coordinator's /v1/stats on this address")
		reps         = fs.Int("reps", 25, "random PTG combinations per point (paper: 25)")
		seed         = fs.Int64("seed", 42, "base random seed")
		workers      = fs.Int("workers", 0, "concurrent runs (default: GOMAXPROCS) of fig2-fig5, mu-calibration, -campaign sweeps and each -coordinate job; table1, fig1, ablation and dynamic are sequential")
		csvPath      = fs.String("csv", "", "fig2-fig5: also write the aggregated results to this CSV file")
		cpuProfile   = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile   = fs.String("memprofile", "", "write a pprof allocation profile (after a final GC) to this file on exit")
	)
	if ok, err := cli.Parse(fs, argv, w); !ok {
		return err
	}

	// The run's mode is the first campaign mode whose flag is set, else
	// the named experiment, and it reads only its own flags.
	exp := strings.ToLower(*name)
	mode, reads := "-experiment "+exp, []string{"experiment", "reps", "seed"}
	if _, ok := figures[exp]; ok {
		reads = append(reads, "workers", "csv")
	} else if exp == "mu-calibration" {
		reads = append(reads, "workers")
	}
	if *queryFlag && (*campaignPath == "" || *storeDir == "") {
		return fmt.Errorf("-query requires -campaign and -store")
	}
	for _, m := range campaignModes {
		if f := fs.Lookup(m.flag); f.Value.String() != f.DefValue {
			if *campaignPath == "" {
				return fmt.Errorf("-%s requires -campaign", m.flag)
			}
			mode, reads = "-"+m.flag, m.reads
			break
		}
	}
	if err := cli.Scope(fs, mode, slices.Concat(reads, []string{"cpuprofile", "memprofile"})...); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "ptgbench: wrote CPU profile to %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ptgbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live + cumulative allocs accurately
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ptgbench: memprofile: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "ptgbench: wrote heap profile to %s\n", path)
		}()
	}

	if *queryFlag {
		return queryMode(w, *campaignPath, *storeDir, queryOpts{
			family: *qFamily, strategy: *qStrategy, from: *qFrom, to: *qTo,
			format: *qFormat, fullScan: *qFullScan,
		})
	}
	if *coordinate != "" {
		return coordinateMode(w, *campaignPath, *coordinate, *fleetShards, *workers, *pollEvery, *stallAfter, *statsAddr, *cacheDir)
	}
	if *campaignPath != "" {
		return campaignMode(w, *campaignPath, *shard, *jsonl, *merge, *storeDir, *resume, *workers, *cacheDir)
	}

	// -reps 0 takes the run grid's default for every experiment.
	if *reps < 0 {
		return fmt.Errorf("-reps %d must be non-negative", *reps)
	}
	r := ptgsched.ExperimentConfig{Reps: *reps}.Defaults().Reps
	if fig, ok := figures[exp]; ok {
		return figure(w, exp, *seed, r, *workers, *csvPath, fig.title, fig.metrics...)
	}
	switch exp {
	case "table1":
		return table1(w)
	case "fig1":
		return fig1(w)
	case "mu-calibration":
		return muCalibration(w, *seed, r, *workers)
	case "ablation":
		return ablation(w, *seed, r)
	case "dynamic":
		return dynamic(w, *seed, r)
	default:
		return fmt.Errorf("unknown experiment %q", *name)
	}
}

// campaignModes are the campaign modes in precedence order, each with the
// flags it reads: a run is in the first mode whose flag is set. So a mode
// flag that a higher mode does not read is refused beside it — -merge
// beside -store, -shard beside -merge — by the one scope rule.
var campaignModes = []struct {
	flag  string
	reads []string
}{
	{"query", []string{"query", "campaign", "store", "family", "strategy", "from", "to", "format", "fullscan"}},
	{"coordinate", []string{"coordinate", "campaign", "workers", "cache", "fleet-shards", "poll", "stall-timeout", "stats-addr"}},
	{"store", []string{"store", "campaign", "workers", "cache", "shard", "resume"}},
	{"merge", []string{"merge", "campaign", "jsonl"}},
	{"shard", []string{"shard", "campaign", "workers", "cache", "jsonl"}},
	{"campaign", []string{"campaign", "workers", "cache", "jsonl"}},
}

// figures are the paper's figure campaigns (PaperCampaignSpec): each
// report's title and the metrics it tabulates. Only these have one table
// to write as CSV.
var figures = map[string]struct {
	title   string
	metrics []ptgsched.ExperimentMetric
}{
	"fig2": {"Figure 2: µ sweep of WPS-work on random PTGs",
		[]ptgsched.ExperimentMetric{ptgsched.MetricUnfairness, ptgsched.MetricAvgMakespan}},
	"fig3": {"Figure 3: 8 strategies on random PTGs",
		[]ptgsched.ExperimentMetric{ptgsched.MetricUnfairness, ptgsched.MetricRelMakespan}},
	"fig4": {"Figure 4: 8 strategies on FFT PTGs",
		[]ptgsched.ExperimentMetric{ptgsched.MetricUnfairness, ptgsched.MetricRelMakespan}},
	"fig5": {"Figure 5: 6 strategies on Strassen PTGs",
		[]ptgsched.ExperimentMetric{ptgsched.MetricUnfairness, ptgsched.MetricRelMakespan}},
}

// progressInterval paces the stderr progress reports of long sweeps; a
// sweep finishing inside one interval prints nothing.
const progressInterval = 10 * time.Second

// startProgress reports snapshot() to stderr every progressInterval until
// the returned stop function is called. Progress goes to stderr so the
// table/JSONL output on stdout stays byte-identical, progress or not.
func startProgress(snapshot func() string) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(progressInterval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Fprintln(os.Stderr, "ptgbench: "+snapshot())
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// openCache opens the shared result cache, returning it with a finish
// function that seals the writer segment and prints the cache counters as
// one stderr stats line (stdout stays byte-identical with or without a
// cache — that is the whole point).
func openCache(dir string) (*ptgsched.CampaignCache, func(), error) {
	ch, err := ptgsched.OpenCampaignCache(dir)
	if err != nil {
		return nil, nil, err
	}
	finish := func() {
		if err := ch.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ptgbench: cache %s: %v\n", dir, err)
		}
		st := ch.Stats()
		fmt.Fprintf(os.Stderr, "ptgbench: cache %s: hits=%d misses=%d verify_failures=%d entries=%d\n",
			dir, st.Hits, st.Misses, st.VerifyFailures, st.Entries)
		for _, ve := range ch.VerifyErrors() {
			fmt.Fprintf(os.Stderr, "ptgbench: %s\n", ve.Error())
		}
	}
	return ch, finish, nil
}

// jsonlFile is a -jsonl result file: records go through a buffered writer
// and one line buffer reused across them (writes are serialized). The
// file is the run's deliverable, so close reports the flush's error and
// then the close's — a filesystem that reports a failed write-back only
// at close (NFS, a quota) must fail the run, not leave a short file
// behind exit 0. A nil *jsonlFile is the absent -jsonl flag: writes and
// closes on it do nothing.
type jsonlFile struct {
	f   *os.File
	w   *bufio.Writer
	buf []byte
}

// createJSONL creates the -jsonl file at path; an empty path yields nil.
func createJSONL(path string) (*jsonlFile, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &jsonlFile{f: f, w: bufio.NewWriter(f)}, nil
}

func (j *jsonlFile) write(r ptgsched.CampaignPointResult) error {
	if j == nil {
		return nil
	}
	var err error
	if j.buf, err = ptgsched.AppendCampaignJSONL(j.buf[:0], r); err != nil {
		return err
	}
	_, err = j.w.Write(j.buf)
	return err
}

func (j *jsonlFile) close() error {
	if j == nil {
		return nil
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	return j.f.Close()
}

// abort releases the file on an error path, where the run's error is the
// one to report; after a successful close it is a harmless second Close.
func (j *jsonlFile) abort() {
	if j != nil {
		j.f.Close()
	}
}

// campaignMode drives the declarative scenario engine: sweep a spec
// (optionally into a durable store), run one shard of it, or merge shard
// outputs. The whole path is streaming — points are generated lazily,
// completed results feed the incremental aggregator (or the JSONL sink)
// as they arrive, and nothing proportional to the sweep is materialized
// except where the user asked for an in-memory shard result file.
func campaignMode(w io.Writer, specPath, shard, jsonlPath, merge, storeDir string, resume bool, workers int, cacheDir string) error {
	e, err := cli.LoadCampaign(specPath)
	if err != nil {
		return err
	}
	// Report the cardinality before anything runs (the expansion is lazy:
	// no point exists yet), so the operator of a multi-million-point sweep
	// sees its size immediately.
	name := campaignTitle(e, specPath)
	fmt.Fprintf(os.Stderr, "ptgbench: campaign %s: %d cells, %d points\n", name, len(e.Cells), e.NumPoints())

	var sources []recordSource
	if merge != "" {
		if sources, err = mergeInputs(merge, e); err != nil {
			return err
		}
	}

	var memo ptgsched.CampaignMemo
	if cacheDir != "" {
		ch, finish, err := openCache(cacheDir)
		if err != nil {
			return err
		}
		defer finish()
		memo = ch.Bind(e)
	}

	if storeDir != "" {
		return storeMode(w, specPath, e, storeDir, shard, resume, workers, memo)
	}

	sink, err := createJSONL(jsonlPath)
	if err != nil {
		return err
	}
	defer sink.abort()

	if shard != "" {
		idx, n, err := ptgsched.ParseCampaignShard(shard)
		if err != nil {
			return err
		}
		set, err := e.Shard(idx, n)
		if err != nil {
			return err
		}
		// A shard's results are the deliverable (the JSONL wire artifact),
		// and a sink that promises order materializes: Run returns them
		// in point order, bounded by the user's own shard split.
		results, err := e.Run(set, ptgsched.CampaignSweepOptions{Workers: workers, Memo: memo})
		if err != nil {
			return err
		}
		if sink == nil {
			return ptgsched.WriteCampaignJSONL(w, results)
		}
		if err := ptgsched.WriteCampaignJSONL(sink.w, results); err != nil {
			return err
		}
		if err := sink.close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d of %d points (shard %s) to %s\n",
			len(results), e.NumPoints(), shard, jsonlPath)
		return nil
	}

	// An unsharded run and a merge differ only in where the records come
	// from — the sweep, in completion order, or the shard files, in read
	// order. Either way every record is teed into the optional -jsonl copy
	// and the incremental aggregator (which accepts any order, so order on
	// disk never matters), and the tables are printed.
	agg := e.NewAggregator()
	tee := func(r ptgsched.CampaignPointResult) error {
		if err := sink.write(r); err != nil {
			return err
		}
		return agg.Add(r)
	}
	if merge != "" {
		for _, src := range sources {
			if err = src(tee); err != nil {
				break
			}
		}
	} else {
		set := e.All()
		var done atomic.Int64
		stop := startProgress(func() string {
			return fmt.Sprintf("campaign %s: %d/%d points", name, done.Load(), set.Len())
		})
		err = e.Each(set, ptgsched.CampaignSweepOptions{Workers: workers, Memo: memo}, func(r ptgsched.CampaignPointResult) error {
			done.Add(1)
			return tee(r)
		})
		stop()
	}
	if err != nil {
		return err
	}
	if sink != nil {
		if err := sink.close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d of %d points to %s\n", agg.Added(), e.NumPoints(), jsonlPath)
	}
	tables, err := agg.Tables()
	if err != nil {
		return err
	}
	return renderCampaign(w, specPath, e, tables)
}

// coordinateMode distributes the campaign over a fleet of remote ptgserve
// workers: the spec is split into shard leases, each lease dispatched as
// an asynchronous /v1/jobs job, progress polled, dead or stalled workers'
// leases reassigned, and results streamed back through the incremental
// aggregator — deduplicated, so re-executed shards never double-count.
// stdout carries exactly the tables an unsharded local run prints
// (bit-identically); the fleet narrative (leases, deaths, reassignments)
// and the final robustness counters go to stderr.
func coordinateMode(w io.Writer, specPath, workerList string, shards, jobWorkers int, poll, stall time.Duration, statsAddr, cacheDir string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var ch *ptgsched.CampaignCache
	if cacheDir != "" {
		var finish func()
		if ch, finish, err = openCache(cacheDir); err != nil {
			return err
		}
		defer finish()
	}
	workers := splitList(workerList)
	c, err := ptgsched.NewFleetCoordinator(data, workers, ptgsched.FleetOptions{
		Shards:       shards,
		JobWorkers:   jobWorkers,
		PollInterval: poll,
		StallTimeout: stall,
		Cache:        ch,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ptgbench: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	e := c.Expansion()
	fmt.Fprintf(os.Stderr, "ptgbench: coordinating %d points over %d workers\n",
		e.NumPoints(), len(workers))
	if statsAddr != "" {
		ln, err := net.Listen("tcp", statsAddr)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "ptgbench: fleet stats on http://%s/v1/stats\n", ln.Addr())
		go http.Serve(ln, c.StatsHandler())
	}
	stop := startProgress(func() string {
		p := c.Progress()
		return fmt.Sprintf("fleet: %d/%d points, %d/%d shards merged",
			p.MergedPoints, p.Points, p.MergedShards, p.Shards)
	})
	tables, err := c.Run(context.Background())
	stop()
	cs := c.Counters()
	fmt.Fprintf(os.Stderr,
		"ptgbench: fleet done: %d dispatches, %d retries, %d reassignments, %d worker deaths, %d duplicate points skipped, %d points seeded from cache\n",
		cs.Dispatches, cs.Retries, cs.Reassignments, cs.WorkerDeaths, cs.DuplicatePoints, cs.CacheSeededPoints)
	if err != nil {
		return err
	}
	return renderCampaign(w, specPath, e, tables)
}

// recordSource streams the records of one -merge input through emit — a
// multi-million-point store directory merges without the result set ever
// being resident.
type recordSource func(emit func(ptgsched.CampaignPointResult) error) error

// jsonlSource is the recordSource of the JSONL file at path.
func jsonlSource(path string) recordSource {
	return func(emit func(ptgsched.CampaignPointResult) error) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := ptgsched.ReadCampaignJSONLFunc(f, emit); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		return nil
	}
}

// mergeInputs expands the -merge argument into record sources: each
// comma-separated entry is a JSONL file, a store directory, or a
// directory of *.jsonl files (any folder of shard outputs), merged in
// name order — aggregation reorders by point index, so order never
// matters. A store directory is read through the store, opened read-only
// (it holds no file between scans, so there is nothing to close): the
// store refuses one written by another campaign spec (two specs can share
// an expansion's shape, e.g. differ only in seed, so the aggregate-time
// congruence checks alone cannot catch it) and applies its torn-tail rule
// and per-record validation. Empty entries (a trailing or doubled comma)
// are skipped.
func mergeInputs(merge string, e *ptgsched.CampaignExpansion) ([]recordSource, error) {
	var sources []recordSource
	for _, entry := range splitList(merge) {
		fi, err := os.Stat(entry)
		if err != nil {
			return nil, err
		}
		if !fi.IsDir() {
			sources = append(sources, jsonlSource(entry))
			continue
		}
		if st, err := ptgsched.OpenCampaignStoreRead(entry, e); err == nil {
			sources = append(sources, st.Each)
			continue
		} else if !errors.Is(err, os.ErrNotExist) { // a store, but not this campaign's
			return nil, err
		}
		// ReadDir + suffix filter, not Glob: the directory name is user
		// input and may contain glob metacharacters.
		entries, err := os.ReadDir(entry)
		if err != nil {
			return nil, err
		}
		n := len(sources)
		for _, ent := range entries { // ReadDir sorts by name
			if !ent.IsDir() && strings.HasSuffix(ent.Name(), ".jsonl") {
				sources = append(sources, jsonlSource(filepath.Join(entry, ent.Name())))
			}
		}
		if len(sources) == n {
			return nil, fmt.Errorf("%s: no *.jsonl segments to merge", entry)
		}
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("-merge %q names no inputs", merge)
	}
	return sources, nil
}

// splitList splits a comma-separated flag value, trimming blanks and
// skipping empty entries.
func splitList(list string) []string {
	var out []string
	for _, item := range strings.Split(list, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// storeMode sweeps into a durable store: create (or, with resume, reopen)
// the store, run the pending points of the selected shard (or the whole
// expansion), and — when the store is complete — print the aggregated
// tables. A killed run is continued by the same invocation plus -resume.
// During the sweep, per-shard progress (read straight off the store's
// done bitmap) is reported to stderr every few seconds.
func storeMode(w io.Writer, specPath string, e *ptgsched.CampaignExpansion, dir, shard string, resume bool, workers int, memo ptgsched.CampaignMemo) error {
	shards := 1
	set := e.All()
	if shard != "" {
		idx, n, err := ptgsched.ParseCampaignShard(shard)
		if err != nil {
			return err
		}
		shards = n
		if set, err = e.Shard(idx, n); err != nil {
			return err
		}
	}

	var st *ptgsched.CampaignStore
	var err error
	if resume {
		st, err = ptgsched.OpenCampaignStore(dir, e)
	} else {
		st, err = ptgsched.CreateCampaignStore(dir, e, shards)
	}
	if err != nil {
		return err
	}
	defer st.Close()
	// The manifest pins the partition: a sweep that does not match it
	// could compute points another live shard process owns — duplicate
	// appends across processes make the store unrecoverable.
	if manShards := st.Manifest().Shards; shard != "" && manShards != shards {
		return fmt.Errorf("store %s is partitioned into %d shards, -shard says %d (rerun with -shard i/%d)",
			dir, manShards, shards, manShards)
	} else if shard == "" && manShards != 1 {
		return fmt.Errorf("store %s is partitioned into %d shards; resume each shard with -shard i/%d, then aggregate with -merge %s",
			dir, manShards, manShards, dir)
	}

	if memo != nil {
		st.UseMemo(memo)
		if resume {
			// A resumed store is a cache source: export what earlier runs
			// already proved, so other campaigns sharing the cache skip it.
			if n, err := st.PublishTo(memo); err != nil {
				return err
			} else if n > 0 {
				fmt.Fprintf(os.Stderr, "ptgbench: published %d completed store points to the cache\n", n)
			}
		}
	}
	stop := startProgress(func() string {
		pr := st.Progress()
		b := fmt.Sprintf("store %s: %d/%d points", dir, pr.Completed, pr.Total)
		for _, sh := range pr.Shards {
			b += fmt.Sprintf(" [shard %d: %d/%d]", sh.Index, sh.Completed, sh.Points)
		}
		return b
	})
	ran, skipped, err := st.Sweep(set, workers)
	stop()
	if err != nil {
		return err
	}
	if err := st.Sync(); err != nil {
		return err
	}
	pr := st.Progress()
	fmt.Fprintf(w, "store %s: ran %d points, skipped %d already complete (%d/%d total)\n",
		dir, ran, skipped, pr.Completed, pr.Total)
	if pr.Completed < pr.Total {
		for _, sh := range pr.Shards {
			fmt.Fprintf(w, "  shard %d/%d: %d/%d points\n", sh.Index, len(pr.Shards), sh.Completed, sh.Points)
		}
		fmt.Fprintf(w, "finish the remaining shards, then aggregate with -merge %s\n", dir)
		return nil
	}
	// The store aggregates by re-scanning its segments into the
	// incremental aggregator; completed results are never resident.
	tables, err := st.Aggregate()
	if err != nil {
		return err
	}
	return renderCampaign(w, specPath, e, tables)
}

// campaignTitle names a campaign in reports: the spec's name, or its path.
func campaignTitle(e *ptgsched.CampaignExpansion, specPath string) string {
	if e.Spec.Name != "" {
		return e.Spec.Name
	}
	return specPath
}

// renderCampaign prints every cell's aggregated summary tables.
func renderCampaign(w io.Writer, specPath string, e *ptgsched.CampaignExpansion, tables []ptgsched.CampaignTable) error {
	fmt.Fprintf(w, "Campaign %s: %d cells, %d points\n", campaignTitle(e, specPath), len(e.Cells), e.NumPoints())
	for _, tb := range tables {
		fmt.Fprintf(w, "\n--- cell %s ---\n", tb.Cell.Label)
		for _, m := range []ptgsched.ExperimentMetric{
			ptgsched.MetricUnfairness, ptgsched.MetricAvgMakespan, ptgsched.MetricRelMakespan,
		} {
			if err := tb.Result.RenderTable(w, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// table1 prints the platform inventory of Table 1 plus the derived
// quantities quoted in §2.
func table1(w io.Writer) error {
	fmt.Fprintln(w, "Table 1: multi-cluster subsets of the Grid'5000 platform")
	fmt.Fprintf(w, "%-8s %-10s %6s %9s\n", "Site", "Cluster", "#proc", "GFlop/s")
	for _, pf := range ptgsched.Grid5000Sites() {
		for i, c := range pf.Clusters {
			site := ""
			if i == 0 {
				site = pf.Name
			}
			fmt.Fprintf(w, "%-8s %-10s %6d %9.3f\n", site, c.Name, c.Procs, c.Speed)
		}
	}
	fmt.Fprintln(w, "\nDerived (§2):")
	fmt.Fprintf(w, "%-8s %6s %14s %15s %s\n", "Site", "#proc", "heterogeneity", "power (GF/s)", "topology")
	for _, pf := range ptgsched.Grid5000Sites() {
		topo := "per-cluster switches"
		if pf.SharedSwitch {
			topo = "shared switch"
		}
		fmt.Fprintf(w, "%-8s %6d %13.1f%% %15.1f %s\n",
			pf.Name, pf.TotalProcs(), pf.Heterogeneity()*100, pf.TotalPower(), topo)
	}
	return nil
}

// fig1 reproduces the illustration of §5: two PTGs on two processors, the
// global ordering postpones the small application while the ready-task
// ordering does not.
func fig1(w io.Writer) error {
	fmt.Fprintln(w, "Figure 1: global ordering vs ready-task ordering")
	fmt.Fprintln(w, "(two PTGs on a 2-processor cluster, one processor each)")
	pf := ptgsched.NewPlatform("fig1", true, ptgsched.ClusterSpec{Name: "c0", Procs: 2, Speed: 1})
	mk := func(name string, works ...float64) *ptgsched.Graph {
		g := ptgsched.NewGraph(name)
		var prev *ptgsched.Task
		for i, wk := range works {
			t := g.AddTask(fmt.Sprintf("%s%d", name, i), 1, wk, 0)
			if prev != nil {
				g.MustAddEdge(prev, t, 0)
			}
			prev = t
		}
		return g
	}
	for _, ordering := range []ptgsched.MapOptions{
		{Ordering: ptgsched.GlobalOrdering},
		{Ordering: ptgsched.ReadyTasksOrdering},
	} {
		big, small := mk("big", 10, 5), mk("small", 2, 2)
		sched := ptgsched.NewScheduler(pf)
		sched.MapOptions = ordering
		res := sched.Schedule([]*ptgsched.Graph{big, small}, ptgsched.ES())
		fmt.Fprintf(w, "\n--- %v ordering ---\n", ordering.Ordering)
		fmt.Fprintf(w, "big PTG makespan:   %6.2f s\n", res.Makespan(0))
		fmt.Fprintf(w, "small PTG makespan: %6.2f s\n", res.Makespan(1))
		if err := ptgsched.WriteGantt(w, res.Schedule, 60); err != nil {
			return err
		}
	}
	return nil
}

// sweepFigure runs a one-cell paper campaign through the campaign engine
// — the spec's points swept over the worker pool into the aggregator —
// and returns the cell's aggregated result.
func sweepFigure(spec *ptgsched.CampaignSpec, workers int) (*ptgsched.ExperimentResult, error) {
	e, err := ptgsched.ExpandCampaign(spec)
	if err != nil {
		return nil, err
	}
	agg := e.NewAggregator()
	if err := e.Each(e.All(), ptgsched.CampaignSweepOptions{Workers: workers}, agg.Add); err != nil {
		return nil, err
	}
	tables, err := agg.Tables()
	if err != nil {
		return nil, err
	}
	return tables[0].Result, nil
}

// figure prints one of the paper's figure campaigns (PaperCampaignSpec).
func figure(w io.Writer, name string, seed int64, reps, workers int, csvPath, title string, metricsToShow ...ptgsched.ExperimentMetric) error {
	spec, err := ptgsched.PaperCampaignSpec(name, seed, reps)
	if err != nil {
		return err
	}
	res, err := sweepFigure(spec, workers)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, title)
	combos, sites := res.Config.Reps, len(res.Config.Platforms)
	fmt.Fprintf(w, "(%d combinations × %d platforms = %d runs per point)\n\n",
		combos, sites, combos*sites)
	for _, m := range metricsToShow {
		if err := res.RenderTable(w, m); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.WriteCSV(f); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", csvPath)
	}
	return nil
}

// muCalibration reproduces the textual µ calibration of §7 for the three
// WPS variants on their relevant families.
func muCalibration(w io.Writer, seed int64, reps, workers int) error {
	cases := []struct {
		char   ptgsched.Characteristic
		family ptgsched.PTGFamily
	}{
		{ptgsched.Work, ptgsched.FamilyRandom},
		{ptgsched.CriticalPath, ptgsched.FamilyRandom},
		{ptgsched.Width, ptgsched.FamilyRandom},
		{ptgsched.Width, ptgsched.FamilyFFT},
	}
	for _, c := range cases {
		res, err := sweepFigure(ptgsched.MuSweepCampaignSpec(c.char, c.family, seed, reps), workers)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "µ calibration: WPS-%s on %s PTGs (paper's choice: µ=%.1f)\n",
			c.char, c.family, ptgsched.DefaultMu(c.char, c.family))
		if err := res.RenderTable(w, ptgsched.MetricUnfairness); err != nil {
			return err
		}
		if err := res.RenderTable(w, ptgsched.MetricAvgMakespan); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// ablation quantifies the mapper's design choices: ready-task vs
// global ordering and packing on/off, on the paper's random workload.
func ablation(w io.Writer, seed int64, reps int) error {
	fmt.Fprintln(w, "Ablation: mapping design choices on random PTGs, ES strategy")
	variants := []struct {
		label string
		opts  ptgsched.MapOptions
	}{
		{"ready+packing", ptgsched.MapOptions{}},
		{"ready,no-pack", ptgsched.MapOptions{NoPacking: true}},
		{"global+packing", ptgsched.MapOptions{Ordering: ptgsched.GlobalOrdering}},
		{"global,no-pack", ptgsched.MapOptions{Ordering: ptgsched.GlobalOrdering, NoPacking: true}},
	}
	nptgs := []int{2, 6, 10}
	fmt.Fprintf(w, "%-16s %8s %14s %14s\n", "variant", "#PTGs", "unfairness", "makespan (s)")
	for _, v := range variants {
		for _, n := range nptgs {
			unf, mak := ablationPoint(v.opts, n, seed, reps)
			fmt.Fprintf(w, "%-16s %8d %14.3f %14.1f\n", v.label, n, unf, mak)
		}
	}
	return nil
}

func ablationPoint(opts ptgsched.MapOptions, n int, seed int64, reps int) (unfairness, makespan float64) {
	var unf, mak []float64
	for rep := 0; rep < reps; rep++ {
		for _, pf := range ptgsched.Grid5000Sites() {
			r := rand.New(rand.NewSource(seed + int64(rep)*1009 + int64(n)))
			graphs := make([]*ptgsched.Graph, n)
			for i := range graphs {
				graphs[i] = ptgsched.GeneratePTG(ptgsched.FamilyRandom, r)
			}
			sched := ptgsched.NewScheduler(pf)
			sched.MapOptions = opts
			own := make([]float64, n)
			for i, g := range graphs {
				own[i] = sched.ScheduleAlone(g)
			}
			res := sched.Schedule(graphs, ptgsched.ES())
			ev := res.Evaluate(own)
			unf = append(unf, ev.Unfairness)
			mak = append(mak, ev.Makespan)
		}
	}
	return metrics.Mean(unf), metrics.Mean(mak)
}

// dynamic explores the paper's future-work direction (§8): applications
// with different submission times, constraints recomputed online. Reports
// mean flow time and flow-time unfairness for the online strategies.
func dynamic(w io.Writer, seed int64, reps int) error {
	fmt.Fprintln(w, "Dynamic submissions (§8 future work): Poisson arrivals, online rebalancing")
	strategies := []struct {
		label string
		opts  ptgsched.OnlineOptions
	}{
		{"S", ptgsched.OnlineOptions{Strategy: ptgsched.S()}},
		{"ES", ptgsched.OnlineOptions{Strategy: ptgsched.ES()}},
		{"WPS-work", ptgsched.OnlineOptions{Strategy: ptgsched.WPS(ptgsched.Work, 0.7)}},
		{"WPS-work/no-rebal", ptgsched.OnlineOptions{
			Strategy:                ptgsched.WPS(ptgsched.Work, 0.7),
			NoRebalanceOnCompletion: true,
		}},
	}
	counts := []int{4, 8, 12}
	fmt.Fprintf(w, "%-18s %6s %16s %18s %12s\n",
		"strategy", "#apps", "mean flow (s)", "flow stddev (s)", "rebalances")
	for _, st := range strategies {
		for _, n := range counts {
			var flows []float64
			rebal := 0
			for rep := 0; rep < reps; rep++ {
				for pi, pf := range ptgsched.Grid5000Sites() {
					r := rand.New(rand.NewSource(seed + int64(rep)*997 + int64(n)*13 + int64(pi)))
					arrivals := ptgsched.GenerateWorkload(ptgsched.WorkloadSpec{
						Family:  ptgsched.FamilyRandom,
						Count:   n,
						Process: ptgsched.PoissonArrivals,
						Rate:    0.25,
					}, r)
					res := ptgsched.ScheduleOnline(pf, arrivals, st.opts)
					for _, app := range res.Apps {
						flows = append(flows, app.FlowTime())
					}
					rebal += res.Rebalances
				}
			}
			fmt.Fprintf(w, "%-18s %6d %16.1f %18.1f %12d\n",
				st.label, n, metrics.Mean(flows), metrics.StdDev(flows), rebal)
		}
	}
	return nil
}
