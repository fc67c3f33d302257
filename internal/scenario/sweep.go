package scenario

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ptgsched/internal/core"
	"ptgsched/internal/dag"
	"ptgsched/internal/experiment"
	"ptgsched/internal/metrics"
	"ptgsched/internal/online"
	"ptgsched/internal/platform"
	"ptgsched/internal/workload"
)

// PointResult is one scenario point's measurement: one value per strategy
// of the point's cell. It is the JSONL wire record of sharded sweeps;
// encoding/json round-trips its float64 values bit-exactly, so shards can
// be recombined without loss.
type PointResult struct {
	Index int    `json:"index"`
	Cell  int    `json:"cell"`
	Name  string `json:"name"`
	// Unfairness is Eq. 5 per strategy (for online cells, the analogous
	// mean-normalized flow-time deviation).
	Unfairness []float64 `json:"unfairness"`
	// Makespan is the global makespan per strategy in seconds (for online
	// cells, the completion time of the last application).
	Makespan []float64 `json:"makespan"`
	// Rel is each strategy's makespan divided by the point's best one.
	Rel []float64 `json:"rel"`
}

// Scratch is the state the units of work — sweep points, schedule and
// online requests — run on: the offline pipeline's (Core), which also
// holds the pool a static point's or a schedule request's graphs are
// generated into and the mapper's buffers, and the online engine's
// (Online). Its one owner is the idle set: Borrow lends it to one unit of
// work — a sweep slot, one schedule, online or workload request — and Park
// releases it and takes it back once the unit's results hold only copies.
// Release takes the pooled graphs back and drops all else a point left. A
// unit that panics never reaches Park, so its scratch is dropped. The
// PointResults computed through it are never scratch-owned.
type Scratch struct {
	Core   *core.Scratch
	Online *online.Scratch
}

// NewScratch returns an empty scratch outside the idle set.
func NewScratch() *Scratch {
	return &Scratch{Core: core.NewScratch(), Online: online.NewScratch()}
}

// Release ends the scratch's current unit of work: both engines drop what
// they remember of its graphs and keep only their buffers, and the graphs
// Core handed out return to its pool.
func (sc *Scratch) Release() {
	sc.Core.Release()
	sc.Online.Release()
}

// idle holds the parked scratches, so sweeps and requests start with
// graph pools, engine arenas and trace storage grown. Park keeps every
// scratch and Borrow builds one only when idle is empty, so it never holds
// more than were out at once: its size follows the process's peak
// concurrency, not when the collector ran, as it would behind a sync.Pool.
// built counts the scratches Borrow made.
var idle struct {
	sync.Mutex
	scratches []*Scratch
	built     int
}

// Borrow returns an idle scratch, or a new one when none is idle.
func Borrow() *Scratch {
	idle.Lock()
	defer idle.Unlock()
	if k := len(idle.scratches); k > 0 {
		sc := idle.scratches[k-1]
		idle.scratches[k-1] = nil
		idle.scratches = idle.scratches[:k-1]
		return sc
	}
	idle.built++
	return NewScratch()
}

// Park releases sc and keeps it in the idle set; the caller must not use
// it again.
func (sc *Scratch) Park() {
	sc.Release()
	idle.Lock()
	defer idle.Unlock()
	idle.scratches = append(idle.scratches, sc)
}

// RunPoint executes one scenario point on the calling goroutine.
func (e *Expansion) RunPoint(p Point) PointResult {
	return e.runPoint(p, nil)
}

func (e *Expansion) runPoint(p Point, sc *Scratch) PointResult {
	c := e.Cells[p.Cell]
	if sc == nil {
		sc = NewScratch()
	}
	if c.Online != nil || c.Policy != "" {
		return e.runDynamicPoint(c, p, sc)
	}
	m := experiment.RunOneWith(c.Config, p.NIdx, p.Rep, p.Platform, sc.Core)
	return PointResult{
		Index: p.Index, Cell: p.Cell, Name: p.Name,
		Unfairness: m.Unfairness, Makespan: m.Makespan, Rel: m.Rel,
	}
}

// pointWorkload is what point p's workload is drawn with: the cell's
// arrival process, or a concurrent burst for offline-style cells. It is
// drawn from a source seeded with the point's seed, p.Seed — the same
// draws, in the same order, as the static path makes.
func pointWorkload(c *Cell, p Point) workload.Spec {
	spec := workload.Spec{Family: c.Family, Count: p.NPTGs, Process: workload.Burst, Gen: c.Config.Gen}
	if c.Online != nil {
		spec.Process, spec.Rate = c.Online.Process, c.Online.Rate
	}
	return spec
}

// runDynamicPoint measures every point that runs through the online
// engine: the point's workload replayed per strategy under the point's
// event timeline and the cell's rescheduling policy. An online cell of a
// spec without events is the same run with a nil timeline and the zero
// policy, which the online engine executes as the static online run bit
// for bit. The point's workload and timeline are drawn from sc.Core's
// seeded source, its graphs generated into sc.Core's pool, and the
// strategies share sc.Online: each replays the allocation steps the earlier
// ones made on the point's graphs; Release takes the graphs back and
// forgets the steps when the point ends. Cancelled applications are
// excluded from the flow-time metrics; the relative makespans are guarded,
// since a point whose applications are all cancelled has no positive
// makespan.
func (e *Expansion) runDynamicPoint(c *Cell, p Point, sc *Scratch) PointResult {
	defer sc.Release()
	arrivals := workload.GenerateInto(pointWorkload(c, p), sc.Core.Rand(p.Seed), sc.Core.Graphs(p.NPTGs))
	timeline := e.timelineOn(sc.Core, p)
	var policy online.Policy
	if c.Policy != "" {
		var err error
		if policy, err = online.PolicyByName(c.Policy); err != nil {
			// Policies were validated at parse time; an unknown one here is an
			// engine bug.
			panic(fmt.Sprintf("scenario: %v", err))
		}
	}

	out := PointResult{
		Index: p.Index, Cell: p.Cell, Name: p.Name,
		Unfairness: make([]float64, len(c.Config.Strategies)),
		Makespan:   make([]float64, len(c.Config.Strategies)),
	}
	pf := e.Platforms[p.Platform]
	flows := make([]float64, 0, len(arrivals))
	for s, strat := range c.Config.Strategies {
		res := online.ScheduleWith(sc.Online, pf, arrivals, online.Options{
			Strategy: strat,
			Timeline: timeline,
			Policy:   policy,
		})
		flows = flows[:0]
		for i, app := range res.Apps {
			if res.Cancelled != nil && res.Cancelled[i] {
				continue
			}
			flows = append(flows, app.FlowTime())
		}
		out.Makespan[s] = res.Makespan
		out.Unfairness[s] = flowUnfairness(flows)
	}
	out.Rel = relMakespansGuarded(out.Makespan)
	return out
}

// relMakespansGuarded is metrics.RelativeMakespans with the dynamic case's
// degenerate points allowed: the best makespan is the smallest positive
// one; with none positive (every application cancelled) all ratios are 1,
// and a zero makespan maps to 0. All outputs are finite, keeping the JSONL
// wire format intact. With every makespan positive — any run without
// cancellations — it is RelativeMakespans exactly.
func relMakespansGuarded(mk []float64) []float64 {
	best := math.Inf(1)
	for _, m := range mk {
		if m > 0 && m < best {
			best = m
		}
	}
	rel := make([]float64, len(mk))
	for i, m := range mk {
		switch {
		case math.IsInf(best, 1):
			rel[i] = 1
		case m <= 0:
			rel[i] = 0
		default:
			rel[i] = m / best
		}
	}
	return rel
}

// flowUnfairness is the online analog of Eq. 5: flow times are normalized
// by their mean (the role M_own plays offline is not defined for dynamic
// arrivals) and the absolute deviations from 1 are summed.
func flowUnfairness(flows []float64) float64 {
	mean := metrics.Mean(flows)
	if mean <= 0 {
		return 0
	}
	u := 0.0
	for _, f := range flows {
		u += math.Abs(f/mean - 1)
	}
	return u
}

// SweepOptions shapes one Sweep (and the Each and Run shapes over it). The
// zero value is a plain sweep over GOMAXPROCS workers.
type SweepOptions struct {
	// Workers is the pool size: 0 means GOMAXPROCS, anything ≤ 1 runs
	// inline on the calling goroutine.
	Workers int
	// Memo, when non-nil, is asked for each point before it is computed and
	// offered each computed miss (see Memo).
	Memo Memo
	// Skip, when non-nil, is asked with each global point index before
	// anything else happens to it; a skipped point is neither looked up,
	// computed nor visited. It is called from the pool goroutines.
	Skip func(i int) bool
	// Context, when non-nil, stops the sweep once cancelled: no further
	// point is started and Sweep returns the context's error.
	Context context.Context
}

// Slots returns the number of pool slots a sweep of n points uses under
// these options: 0 workers means GOMAXPROCS, anything ≤ 1 means inline,
// and the pool never exceeds the point count. The slot argument of
// Sweep's visit ranges over [0, Slots(n)), so callers size their per-slot
// state with it.
func (o SweepOptions) Slots(n int) int {
	workers := o.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(workers, n), 1)
}

// forEachSlot runs fn(slot, j) for every j in [0, n) over Slots(n) pool
// goroutines — inline on the calling goroutine when that is one — and
// returns when every call has finished. A slot runs its calls strictly
// sequentially; which j lands on which slot is scheduling-dependent. Slots
// claim indices from one shared cursor, so a cheap point costs an atomic
// add, not a goroutine handoff.
func (o SweepOptions) forEachSlot(n int, fn func(slot, j int)) {
	slots := o.Slots(n)
	if slots == 1 {
		for j := 0; j < n; j++ {
			fn(0, j)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(slots)
	for slot := 0; slot < slots; slot++ {
		go func(slot int) {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= n {
					return
				}
				fn(slot, j)
			}
		}(slot)
	}
	wg.Wait()
}

// Sweep is the one loop every point of every sweep runs through: it fans
// the set's points over the worker pool, computes each on a per-slot
// Scratch behind the memo (lookup before, publish after), and hands each
// result to visit on the goroutine that computed it. Sweep borrows one
// scratch per slot from the idle set when it starts and parks them again
// when it returns; a slot that panicked drops its scratch instead.
//
// visit receives the pool slot executing the call. A slot runs its points
// strictly sequentially, so state indexed by slot — encode buffers, result
// batches — needs no locking; anything shared across slots is the
// caller's to synchronize.
//
// The stream-order contract, stated once for every record stream in the
// repository: results arrive in completion order. Which point lands on
// which slot, and when, is scheduling-dependent, so everything fed
// directly from a sweep — Each, an unsharded `ptgbench -jsonl` file, store
// segments, `-query -format jsonl` — is deterministic as a set of records,
// not as a sequence. Each record is bit-identical at every worker count
// (a point derives its whole scenario from its own seed) and aggregation
// accepts any order. A sink that promises order materializes and sorts:
// Run, and the `-shard` JSONL files built on it.
//
// The first error stops the sweep — points already running finish, no
// further point is started — and is returned: an error from visit, the
// Context's error once it is cancelled, or a panicking point (a degenerate
// generated scenario) converted into an error naming its global index, so
// one bad point fails one sweep, never unwinds a pool goroutine.
func (e *Expansion) Sweep(set IndexSet, o SweepOptions, visit func(slot int, r PointResult) error) error {
	n := set.Len()
	scratches := make([]*Scratch, o.Slots(n))
	for slot := range scratches {
		scratches[slot] = Borrow()
	}
	var (
		mu       sync.Mutex
		firstErr error
		stop     atomic.Bool
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	o.forEachSlot(n, func(slot, j int) {
		if stop.Load() {
			return
		}
		if o.Context != nil {
			if err := o.Context.Err(); err != nil {
				fail(err)
				return
			}
		}
		i := set.At(j)
		if o.Skip != nil && o.Skip(i) {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				// The sweep stops here; a scratch left mid-point is dropped.
				scratches[slot] = nil
				fail(fmt.Errorf("scenario: point %d panicked: %v", i, r))
			}
		}()
		if err := visit(slot, e.ComputePointScratch(scratches[slot], e.PointAt(i), o.Memo)); err != nil {
			fail(err)
		}
	})
	for _, sc := range scratches {
		if sc != nil {
			sc.Park()
		}
	}
	return firstErr
}

// emitBatch is Each's per-slot flush granularity: small enough that
// consumers (JSONL sinks, progress reporting) see results promptly, large
// enough that the emit lock stops being a contention point at high worker
// counts. It changes when results reach emit, never which results do.
const emitBatch = 64

// Each is the streaming shape of Sweep: every result is delivered to emit,
// one call at a time. Each slot gathers its results into a private batch
// and flushes it under one lock acquisition, so the emit lock is taken
// once per emitBatch points, not once per point. Order is Sweep's
// (completion order); callers needing more feed an Aggregator, which
// accepts any order. After the first error nothing further is emitted —
// batches still buffered are discarded — and that error is returned.
func (e *Expansion) Each(set IndexSet, o SweepOptions, emit func(PointResult) error) error {
	return e.each(set, o, emitBatch, emit)
}

func (e *Expansion) each(set IndexSet, o SweepOptions, batch int, emit func(PointResult) error) error {
	bufs := make([][]PointResult, o.Slots(set.Len()))
	var (
		mu      sync.Mutex
		emitErr error
	)
	flush := func(slot int) error {
		mu.Lock()
		defer mu.Unlock()
		for i := range bufs[slot] {
			if emitErr != nil {
				break
			}
			emitErr = emit(bufs[slot][i])
		}
		bufs[slot] = bufs[slot][:0]
		return emitErr
	}
	if err := e.Sweep(set, o, func(slot int, r PointResult) error {
		bufs[slot] = append(bufs[slot], r)
		if len(bufs[slot]) < batch {
			return nil
		}
		return flush(slot)
	}); err != nil {
		return err
	}
	// The pool has returned; drain the partial batches.
	for slot := range bufs {
		if err := flush(slot); err != nil {
			return err
		}
	}
	return nil
}

// Run is the ordered shape of Sweep: the set's results materialized in
// point order, byte-identical (as JSONL) at every worker count. Sweeps too
// large to hold stream through Each or a store.Sweep instead.
func (e *Expansion) Run(set IndexSet, o SweepOptions) ([]PointResult, error) {
	outs := make([]PointResult, set.Len())
	if err := e.Sweep(set, o, func(_ int, r PointResult) error {
		outs[(r.Index-set.Offset)/set.stride()] = r
		return nil
	}); err != nil {
		return nil, err
	}
	return outs, nil
}

// RunEach is Each with only a worker count.
func (e *Expansion) RunEach(set IndexSet, workers int, emit func(PointResult) error) error {
	return e.Each(set, SweepOptions{Workers: workers}, emit)
}

// RunEachIsolated is RunEach: every sweep isolates its points' panics.
func (e *Expansion) RunEachIsolated(set IndexSet, workers int, emit func(PointResult) error) error {
	return e.RunEach(set, workers, emit)
}

// WriteJSONL streams results as JSON Lines: one compact PointResult object
// per line, the shard interchange format. One encode buffer is reused for
// the whole set (via AppendJSONL), so writing allocates only while the
// longest line grows.
func WriteJSONL(w io.Writer, results []PointResult) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for i := range results {
		var err error
		buf, err = AppendJSONL(buf[:0], results[i])
		if err != nil {
			return err
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONLFunc streams results written by WriteJSONL through fn, one
// record at a time, without materializing the set; blank lines are
// skipped, so concatenated shard files read back directly. It is the
// memory-flat reader behind merge flows: fed into an Aggregator, a
// multi-million-point result file reduces without ever being resident.
func ReadJSONLFunc(r io.Reader, fn func(PointResult) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		pr, err := ParseJSONL(text)
		if err != nil {
			return fmt.Errorf("scenario: jsonl line %d: %w", line, err)
		}
		if err := fn(pr); err != nil {
			return err
		}
	}
	return sc.Err()
}

// ReadJSONL loads results written by WriteJSONL into a slice — the
// materialized convenience over ReadJSONLFunc for small result sets.
func ReadJSONL(r io.Reader) ([]PointResult, error) {
	var out []PointResult
	if err := ReadJSONLFunc(r, func(pr PointResult) error {
		out = append(out, pr)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Table is one cell's aggregated campaign outcome: Result carries the
// paper's summary metrics (one point per NPTGs value, one column per
// strategy) and renders through the experiment package's table and CSV
// writers.
type Table struct {
	Cell   *Cell
	Result *experiment.Result
}

// Aggregate reduces a complete result set — one unsharded run, or the
// recombined outputs of all shards — into per-cell summary tables: the
// materialized convenience over Aggregator for result sets already held in
// a slice. Incomplete or duplicated result sets are rejected.
func (e *Expansion) Aggregate(results []PointResult) ([]Table, error) {
	if len(results) != e.numPoints {
		return nil, fmt.Errorf("scenario: %d results for %d points (missing shards?)",
			len(results), e.numPoints)
	}
	agg := e.NewAggregator()
	for i := range results {
		if err := agg.Add(results[i]); err != nil {
			return nil, err
		}
	}
	return agg.Tables()
}

// FindPoint resolves a point by canonical name or decimal global index.
// The name form is parsed back into its (cell, NPTGs, repetition,
// platform) coordinates and the index computed arithmetically — O(cells),
// never a scan over the (possibly enormous) point space.
func (e *Expansion) FindPoint(key string) (Point, error) {
	var idx int
	if _, err := fmt.Sscanf(key, "%d", &idx); err == nil && fmt.Sprintf("%d", idx) == key {
		if idx < 0 || idx >= e.numPoints {
			return Point{}, fmt.Errorf("scenario: point index %d outside [0,%d)", idx, e.numPoints)
		}
		return e.PointAt(idx), nil
	}
	if p, ok := e.findPointByName(key); ok {
		return p, nil
	}
	example := ""
	if e.numPoints > 0 {
		example = e.PointAt(0).Name
	}
	return Point{}, fmt.Errorf("scenario: no point named %q (try an index in [0,%d) or a name like %q)",
		key, e.numPoints, example)
}

// findPointByName inverts the canonical "<cell>/n=<n>/rep=<rep>/<site>"
// name: each cell label is tried as a prefix (labels never contain the
// "/n=" separator), the remaining coordinates are parsed, and the final
// PointAt regenerates the name to confirm the match — so an ambiguous
// parse can reject, never mis-resolve.
func (e *Expansion) findPointByName(key string) (Point, bool) {
	nPf := len(e.Platforms)
	for ci, c := range e.Cells {
		rest, ok := strings.CutPrefix(key, c.Label+"/n=")
		if !ok {
			continue
		}
		nStr, rest, ok := strings.Cut(rest, "/rep=")
		if !ok {
			continue
		}
		repStr, pfName, ok := strings.Cut(rest, "/")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(nStr)
		if err != nil {
			continue
		}
		rep, err := strconv.Atoi(repStr)
		if err != nil || rep < 0 || rep >= e.reps {
			continue
		}
		ni := -1
		for i, v := range e.nptgs {
			if v == n {
				ni = i
				break
			}
		}
		pi := -1
		for i, pf := range e.Platforms {
			if pf.Name == pfName {
				pi = i
				break
			}
		}
		if ni < 0 || pi < 0 {
			continue
		}
		idx := ci*e.perCell + (ni*e.reps+rep)*nPf + pi
		if p := e.PointAt(idx); p.Name == key {
			return p, true
		}
	}
	return Point{}, false
}

// Materialize regenerates a point's scenario inputs — the platform and the
// deterministic PTG batch (with arrival times for online cells, all zero
// otherwise) — so callers like ptgsim can rerun and inspect a single point
// in depth. The graphs are fresh instances owned by the caller; the cell
// (strategies, labels, family) is e.Cells[p.Cell].
func (e *Expansion) Materialize(p Point) (pf *platform.Platform, graphs []*dag.Graph, releases []float64) {
	arrivals := workload.Generate(pointWorkload(e.Cells[p.Cell], p), rand.New(rand.NewSource(p.Seed)))
	graphs = make([]*dag.Graph, len(arrivals))
	releases = make([]float64, len(arrivals))
	for i, a := range arrivals {
		graphs[i], releases[i] = a.Graph, a.At
	}
	return e.Platforms[p.Platform], graphs, releases
}
