package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"ptgsched/internal/cache"
	"ptgsched/internal/query"
	"ptgsched/internal/scenario"
	"ptgsched/internal/store"
)

// storeWorkload is store_warm: the compute layers stay idle and I/O and
// encoding do all the work. Set-up publishes a synthetic result for every
// point of a large expansion into a content-addressed cache; a pass opens
// the cache (full chain verification), sweeps the expansion into a fresh
// store through it (every point a verified hit → encode → append),
// syncs, reopens the store (recovery scan), aggregates it, and queries it.
type storeWorkload struct {
	cfg  config
	reps int
	// queries, fullScans are how many pushdown and full-scan queries a
	// pass runs.
	queries, fullScans int

	dir  string
	e    *scenario.Expansion
	plan *query.Plan
	// wantTables is an Aggregator fed the synthetic results directly.
	wantTables []scenario.Table
	passes     int
}

func newStoreWorkload(cfg config) *storeWorkload {
	w := &storeWorkload{cfg: cfg, reps: 150, queries: 20, fullScans: 2}
	if cfg.tiny {
		w.reps, w.queries = 10, 4
	}
	return w
}

// storeSpec expands to reps × 3 PTG counts × 4 sites × 3 cells (strassen,
// fft k=2, fft k=3) points: 5400 at the default 150 reps.
func (w *storeWorkload) storeSpec() string {
	return fmt.Sprintf(`{"name":"store_warm","seed":%d,"reps":%d,"nptgs":[2,4,6],`+
		`"families":[{"family":"strassen"},{"family":"fft","k":[2,3]}]}`, w.cfg.seed, w.reps)
}

// synthResult fabricates point idx's result — realistically shaped (real
// name, one column per strategy) and deterministic in (seed, idx) —
// without running the scheduling pipeline.
func synthResult(e *scenario.Expansion, seed int64, idx int) scenario.PointResult {
	p := e.PointAt(idx)
	ns := len(e.Cells[p.Cell].Config.Strategies)
	r := scenario.PointResult{
		Index: idx, Cell: p.Cell, Name: p.Name,
		Unfairness: make([]float64, ns), Makespan: make([]float64, ns), Rel: make([]float64, ns),
	}
	k := uint64(idx)*0x9e3779b97f4a7c15 ^ uint64(seed)*0xbf58476d1ce4e5b9
	for s := 0; s < ns; s++ {
		k ^= k >> 31
		k *= 0x94d049bb133111eb
		r.Unfairness[s] = float64(k%9973)/9973 + float64(s)*0.01
		r.Makespan[s] = 1000 + float64(k>>20%100003)/97 + float64(s)
		r.Rel[s] = 1 + float64(k>>40%1009)/1009
	}
	return r
}

func (w *storeWorkload) cacheDir() string { return filepath.Join(w.dir, "cache") }

func (w *storeWorkload) setup() error {
	spec, err := scenario.ParseSpec([]byte(w.storeSpec()))
	if err != nil {
		return err
	}
	if w.e, err = scenario.Expand(spec); err != nil {
		return err
	}
	if w.dir, err = os.MkdirTemp(w.cfg.tmp, "store_warm-"); err != nil {
		return err
	}
	c, err := cache.Open(w.cacheDir())
	if err != nil {
		return err
	}
	bound := c.Bind(w.e)
	agg := w.e.NewAggregator()
	for i := 0; i < w.e.NumPoints(); i++ {
		r := synthResult(w.e, w.cfg.seed, i)
		bound.Publish(w.e.PointAt(i), r)
		if err := agg.Add(r); err != nil {
			c.Close()
			return err
		}
	}
	if err := c.Sync(); err != nil {
		c.Close()
		return err
	}
	if err := c.Close(); err != nil {
		return err
	}
	if w.wantTables, err = agg.Tables(); err != nil {
		return err
	}
	if w.cfg.corrupt {
		w.wantTables[0].Result.Points[0].AvgMakespan[0]++
	}
	w.plan, err = query.CompileCached(w.e, query.Query{Family: "strassen", Strategy: "WPS-work", To: query.NoLimit})
	return err
}

func (w *storeWorkload) teardown() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// rowSum is an order-insensitive digest of a record stream: the wrapping
// sum of each record's hash. Segments hold records in completion order,
// so two passes stream the same rows in different orders.
type rowSum struct {
	n   int
	sum uint64
}

func (s *rowSum) add(r scenario.PointResult) error {
	h := fnvOffset
	h.word(uint64(r.Index))
	h.floats(r.Unfairness)
	h.floats(r.Makespan)
	h.floats(r.Rel)
	s.sum += uint64(h)
	s.n++
	return nil
}

func (w *storeWorkload) pass(workers int) (outcome, error) {
	n := w.e.NumPoints()
	out := outcome{ops: n, extra: make(map[string]float64)}
	wrong := false // a failed whole-set check fails every op of the pass
	sdir := filepath.Join(w.dir, fmt.Sprintf("store-%d", w.passes))
	w.passes++
	defer os.RemoveAll(sdir)

	t0 := time.Now()
	c, err := cache.Open(w.cacheDir())
	if err != nil {
		return out, err
	}
	defer c.Close()
	reopen := time.Since(t0)

	st, err := store.Create(sdir, w.e, 4)
	if err != nil {
		return out, err
	}
	st.UseMemo(c.Bind(w.e))
	ran, _, err := st.Sweep(w.e.All(), workers)
	if err == nil {
		err = st.Sync()
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return out, err
	}
	if cs := c.Stats(); ran != n || cs.Hits != uint64(n) || cs.Misses != 0 || cs.VerifyFailures != 0 {
		wrong = true
	}

	t0 = time.Now()
	if st, err = store.Open(sdir, w.e); err != nil {
		return out, err
	}
	reopen += time.Since(t0)
	tables, err := st.Aggregate()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return out, err
	}
	if !sameTables(tables, w.wantTables) {
		wrong = true
	}

	ro, err := store.OpenRead(sdir, w.e)
	if err != nil {
		return out, err
	}
	defer ro.Close()
	var first rowSum
	var lat []float64
	for q := 0; q < w.queries; q++ {
		var rows rowSum
		t0 = time.Now()
		if _, err := ro.Query(w.plan, rows.add); err != nil {
			return out, err
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
		if q == 0 {
			first = rows
		}
		if rows != first || rows.n != w.plan.NumSelected() {
			wrong = true
		}
	}
	for q := 0; q < w.fullScans; q++ {
		var rows rowSum
		if _, err := ro.QueryFullScan(w.plan, rows.add); err != nil {
			return out, err
		}
		if rows != first {
			wrong = true
		}
	}
	groups, _, err := ro.AggregateWhere(w.plan)
	if err != nil {
		return out, err
	}

	if out.bytes, err = dirBytes(w.dir, ""); err != nil {
		return out, err
	}
	if wrong {
		out.failed = n
	}
	h := sha256.New()
	hashTables(h, tables)
	hashWord(h, first.sum)
	hashWord(h, uint64(first.n))
	for _, g := range groups {
		fmt.Fprintf(h, "%+v", g)
	}
	out.digest = hex.EncodeToString(h.Sum(nil)[:8])
	out.extra["store.query_p50_ms"] = percentile(lat, 50)
	out.extra["store.reopen_ms"] = float64(reopen.Nanoseconds()) / 1e6
	return out, nil
}

func sameTables(a, b []scenario.Table) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Result.Points, b[i].Result.Points) {
			return false
		}
	}
	return true
}

// dirBytes sums the sizes of the regular files under dir whose name ends
// in suffix.
func dirBytes(dir, suffix string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), suffix) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// minSliceRecords is how many records a store slice traces regardless of
// its budget: a record costs tens of microseconds, so the floor is far
// above minSliceOps.
const minSliceRecords = 1000

func (w *storeWorkload) traceSlice(tr *tracer, budget time.Duration) (slice, error) {
	sl := slice{workload: w.cfg.workload, root: "store.cycle", counts: make(map[string]float64)}
	// The traced cycle runs over a prefix of every cell of the expansion,
	// so the query's selection (one family of three) stays as selective as
	// on the full store. With a budget, an untraced pass prices a record
	// and the budget buys records at that price; without one the slice is
	// minSliceRecords.
	sl.ops = min(w.e.NumPoints(), minSliceRecords)
	if budget > 0 {
		t0 := time.Now()
		if _, err := w.pass(1); err != nil {
			return sl, err
		}
		perRecord := time.Since(t0) / time.Duration(w.e.NumPoints())
		if perRecord > 0 {
			sl.ops = min(w.e.NumPoints(), max(sl.ops, int(budget/perRecord)))
		}
		sl.untraced = perRecord * time.Duration(sl.ops)
	}

	sdir := filepath.Join(w.dir, "store-traced")
	defer os.RemoveAll(sdir)
	root := tr.begin("store.cycle", -1, 0)
	id := tr.begin("cache.open_verify", root, 0)
	c, err := cache.Open(w.cacheDir())
	tr.end(id)
	if err != nil {
		return sl, err
	}
	defer c.Close()
	sl.counts["cache.entries"] = float64(c.Stats().Entries)
	bound := c.Bind(w.e)

	st, err := store.Create(sdir, w.e, 4)
	if err != nil {
		return sl, err
	}
	var indices []int
	for ci := range w.e.Cells {
		lo, _ := w.e.CellRange(ci)
		for i := 0; i < sl.ops/len(w.e.Cells); i++ {
			indices = append(indices, lo+i)
		}
	}
	sl.ops = len(indices)
	var buf []byte
	for _, i := range indices {
		p := w.e.PointAt(i)
		id = tr.begin("cache.lookup", root, i)
		r, ok := bound.Lookup(p)
		tr.end(id)
		if !ok || !samePoint(r, synthResult(w.e, w.cfg.seed, i)) {
			sl.failed++
			continue
		}
		// Store.Append encodes the record itself; the separate encode
		// span prices that share of it.
		id = tr.begin("scenario.encode", root, i)
		buf, err = scenario.AppendJSONL(buf[:0], r)
		tr.end(id)
		if err == nil {
			id = tr.begin("store.append", root, i)
			err = st.Append(r)
			tr.end(id)
		}
		if err != nil {
			st.Close()
			return sl, err
		}
	}
	id = tr.begin("store.sync", root, 0)
	err = st.Sync()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	tr.end(id)
	if err != nil {
		return sl, err
	}
	cs := c.Stats()
	sl.counts["cache.hits"], sl.counts["cache.misses"] = float64(cs.Hits), float64(cs.Misses)
	sl.counts["cache.verify_failures"] = float64(cs.VerifyFailures)

	id = tr.begin("store.open_recover", root, 0)
	st, err = store.Open(sdir, w.e)
	tr.end(id)
	if err != nil {
		return sl, err
	}
	// A prefix is not a complete store, so the aggregation span covers
	// the streaming reduction (Each into an Aggregator) without Tables.
	agg := w.e.NewAggregator()
	id = tr.begin("store.aggregate", root, 0)
	err = st.Each(agg.Add)
	tr.end(id)
	st.Close()
	if err != nil {
		return sl, err
	}
	if agg.Added() != sl.ops-sl.failed {
		sl.failed = sl.ops
	}

	id = tr.begin("store.open_read", root, 0)
	ro, err := store.OpenRead(sdir, w.e)
	tr.end(id)
	if err != nil {
		return sl, err
	}
	defer ro.Close()
	var rows, full rowSum
	id = tr.begin("store.query", root, 0)
	qs, err := ro.Query(w.plan, rows.add)
	tr.end(id)
	if err != nil {
		return sl, err
	}
	id = tr.begin("store.query_fullscan", root, 0)
	_, err = ro.QueryFullScan(w.plan, full.add)
	tr.end(id)
	if err != nil {
		return sl, err
	}
	if rows != full {
		sl.failed = sl.ops
	}
	tr.end(root)
	sl.traced = time.Duration(tr.spans[root].End - tr.spans[root].Start)

	sl.counts["store.query.bytes_read"], sl.counts["store.query.bytes_total"] = float64(qs.BytesRead), float64(qs.BytesTotal)
	sl.counts["store.query.lines"], sl.counts["store.query.emitted"] = float64(qs.LinesDecoded), float64(qs.Emitted)
	segBytes, err := dirBytes(sdir, ".jsonl")
	if err != nil {
		return sl, err
	}
	idxBytes, err := dirBytes(sdir, ".idx")
	if err != nil {
		return sl, err
	}
	cacheBytes, err := dirBytes(w.cacheDir(), "")
	if err != nil {
		return sl, err
	}
	sl.counts["store.bytes"], sl.counts["store.idx_bytes"], sl.counts["cache.bytes"] = float64(segBytes), float64(idxBytes), float64(cacheBytes)

	// Publishing and plan compilation happen in set-up; they are timed
	// here on a scratch cache so the trace prices them too.
	pdir := filepath.Join(w.dir, "cache-traced")
	defer os.RemoveAll(pdir)
	pc, err := cache.Open(pdir)
	if err != nil {
		return sl, err
	}
	pb := pc.Bind(w.e)
	for _, i := range indices {
		r := synthResult(w.e, w.cfg.seed, i)
		p := w.e.PointAt(i)
		id = tr.begin("cache.publish", -1, i)
		pb.Publish(p, r)
		tr.end(id)
	}
	if err := pc.Close(); err != nil {
		return sl, err
	}
	q := query.Query{Family: "fft", Strategy: "ES", To: query.NoLimit}
	id = tr.begin("query.compile", -1, 0)
	_, err = query.Compile(w.e, q)
	tr.end(id)
	if err != nil {
		return sl, err
	}
	if _, err = query.CompileCached(w.e, q); err != nil {
		return sl, err
	}
	id = tr.begin("query.compile_cached", -1, 0)
	_, err = query.CompileCached(w.e, q)
	tr.end(id)
	if err != nil {
		return sl, err
	}

	sl.layers = tr.layers(sl.ops)
	sl.spans = tr.spans
	return sl, nil
}
