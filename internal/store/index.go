package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"ptgsched/internal/query"
	"ptgsched/internal/scenario"
)

// This file is the store's sparse segment index: per-segment sidecar
// files mapping point-index runs to byte-offset runs, so a selective
// query reads only the byte ranges whose runs can match its predicate
// instead of decoding every segment line.
//
// On-disk format: segment-NNNN.idx sits next to segment-NNNN.jsonl, one
// JSON entry per line — {"off","len","n","lo","hi"} — describing a run
// of n consecutive records occupying segment bytes [off, off+len) whose
// point indices all lie in [lo, hi]. Entries tile the segment from byte
// 0 upward (entry k starts where entry k-1 ended), so sidecar coverage
// is a byte prefix of the segment. Entries are appended with one
// write(2) each, after the records they describe are on the segment —
// the same crash discipline as segments, with the same consequence: a
// crash tears at most the sidecar's final line, and a sidecar can only
// ever lag its segment (cover less), never lead it.
//
// Recovery: readers validate a sidecar structurally (parse, tiling,
// index bounds, shard congruence) and against the segment's length.
// A torn final line is dropped; coverage short of the segment means the
// uncovered tail is scanned and indexed on the fly; any inconsistency —
// mid-file garbage, coverage past the segment, overlap — discards the
// sidecar and rebuilds the index by a full segment scan. A sidecar can
// therefore never make a store unopenable or a query wrong; the worst a
// bad one costs is the scan the index would have saved. Writers never
// trust sidecars at all: Open's recovery scan rebuilds the index, and
// the first append to a segment rewrites its sidecar wholesale
// (deferred, like torn-tail truncation, so opening a shared store never
// mutates sidecars of segments owned by other live shard processes).
//
// Runs are kept sparse by construction (see runIndex.add): a run seals
// at maxRunRecords and at every cell boundary — so with cell-ordered
// appends (the single-writer sweep) runs align to cells exactly and
// family/strategy predicates prune them precisely — while adversarially
// interleaved appends, which would otherwise degenerate to one run per
// record, are bounded by compaction: past maxRunsPerSegment, adjacent
// runs merge pairwise into coarser spans that still prune by index
// range. The index can therefore cost at most ~1.5 MB of memory per
// segment no matter the append order, preserving the store's
// memory-flat promise.

// ErrReadOnly rejects mutations on a store opened with OpenRead.
var ErrReadOnly = errors.New("store: opened read-only")

const (
	// maxRunRecords seals a run at this many records, bounding how many
	// lines a matching run decodes beyond the predicate's true selection.
	maxRunRecords = 512
	// maxRunsPerSegment triggers pairwise compaction: appends that
	// alternate cells every record (possible through raw Append, never
	// through a sweep) would otherwise grow one run per record.
	maxRunsPerSegment = 1 << 16
)

// run describes n records occupying segment bytes [off, off+len) whose
// point indices lie within [lo, hi] (closed interval).
type run struct {
	off, len int64
	n        int
	lo, hi   int
}

// runEntry is run's sidecar wire form.
type runEntry struct {
	Off int64 `json:"off"`
	Len int64 `json:"len"`
	N   int   `json:"n"`
	Lo  int   `json:"lo"`
	Hi  int   `json:"hi"`
}

// runIndex is one segment's in-memory index: runs in byte order, the
// last one still open (absorbing appends) until seal.
type runIndex struct {
	runs     []run
	open     bool
	lastCell int
	// compacted flips when compact() rewrote runs that may already have
	// flushed sidecar entries; the store resets its flush state and
	// re-reconciles the sidecar when it sees this.
	compacted bool
}

// add absorbs one record occupying [lineStart, lineEnd) with point index
// idx in cell ci, extending the open run or sealing it and starting a
// new one per the sparseness rules.
func (ix *runIndex) add(idx, ci int, lineStart, lineEnd int64) {
	if ix.open {
		r := &ix.runs[len(ix.runs)-1]
		if r.n < maxRunRecords && ci == ix.lastCell {
			r.len = lineEnd - r.off
			r.n++
			if idx < r.lo {
				r.lo = idx
			}
			if idx > r.hi {
				r.hi = idx
			}
			return
		}
		ix.open = false
	}
	if len(ix.runs) >= maxRunsPerSegment {
		ix.compact()
	}
	ix.runs = append(ix.runs, run{off: lineStart, len: lineEnd - lineStart, n: 1, lo: idx, hi: idx})
	ix.open = true
	ix.lastCell = ci
}

// compact halves the run count by merging adjacent pairs (they tile, so
// a merged run is just the pair's joint extent). Pruning gets coarser —
// a merged run spans both pair members' index ranges — but never wrong,
// and the amortized cost is O(1) per append.
func (ix *runIndex) compact() {
	merged := ix.runs[:0]
	for i := 0; i < len(ix.runs); i += 2 {
		r := ix.runs[i]
		if i+1 < len(ix.runs) {
			next := ix.runs[i+1]
			r.len = next.off + next.len - r.off
			r.n += next.n
			if next.lo < r.lo {
				r.lo = next.lo
			}
			if next.hi > r.hi {
				r.hi = next.hi
			}
		}
		merged = append(merged, r)
	}
	ix.runs = merged
	ix.open = false
	ix.compacted = true
}

// seal closes the open run so it becomes flushable; the next add starts
// a fresh run.
func (ix *runIndex) seal() { ix.open = false }

// closed returns how many runs are sealed (flushable to the sidecar).
func (ix *runIndex) closed() int {
	if ix.open {
		return len(ix.runs) - 1
	}
	return len(ix.runs)
}

// sidecarPath names segment i's index sidecar.
func sidecarPath(dir string, i int) string {
	return segmentPath(dir, i) + ".idx"
}

func encodeRun(r run) []byte {
	b, err := json.Marshal(runEntry{Off: r.off, Len: r.len, N: r.n, Lo: r.lo, Hi: r.hi})
	if err != nil {
		panic(err) // fixed struct of ints cannot fail to marshal
	}
	return append(b, '\n')
}

// flushIndex writes the segment's newly sealed runs to its sidecar. Only
// segments this process appended to are touched (seg.dirty); the first
// flush reconciles the sidecar wholesale — rewriting it from the
// authoritative in-memory index via temp+rename — which is also how a
// stale or torn sidecar heals. A sidecar write failure marks the sidecar
// dead and degrades silently: the index is derived data, and the next
// open rebuilds it by scan, so it must never fail a sweep. Callers hold
// seg.mu.
func (s *Store) flushIndex(i int, seg *segment) {
	if !seg.dirty || seg.idxDead {
		return
	}
	if seg.idx.compacted {
		// Compaction rewrote runs whose entries may already be on disk;
		// drop the flush state so the sidecar is reconciled from scratch.
		seg.idx.compacted = false
		seg.reconciled = false
		seg.idxFlushed = 0
		if seg.idxf != nil {
			seg.idxf.Close()
			seg.idxf = nil
		}
	}
	closed := seg.idx.closed()
	if !seg.reconciled {
		if err := s.reconcileSidecar(i, seg, closed); err != nil {
			seg.idxDead = true
			return
		}
		seg.reconciled = true
		seg.idxFlushed = closed
		return
	}
	for ; seg.idxFlushed < closed; seg.idxFlushed++ {
		if _, err := seg.idxf.Write(encodeRun(seg.idx.runs[seg.idxFlushed])); err != nil {
			seg.idxDead = true
			return
		}
	}
}

// reconcileSidecar rewrites segment i's sidecar to exactly the first
// closed runs of the in-memory index, atomically (temp file + rename),
// and leaves the renamed file open for appending further entries.
func (s *Store) reconcileSidecar(i int, seg *segment, closed int) error {
	path := sidecarPath(s.dir, i)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, r := range seg.idx.runs[:closed] {
		buf.Write(encodeRun(r))
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	idxf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	seg.idxf = idxf
	return nil
}

// loadSidecar reads and validates segment i's sidecar. ok reports a
// structurally valid sidecar; runs are its entries and cover is the byte
// offset its tiling reaches. A torn final line is dropped (the segment
// crash rule, applied to the sidecar); any other inconsistency returns
// ok == false, sending the caller to the rebuild-by-scan path.
func (s *Store) loadSidecar(i int) (runs []run, cover int64, ok bool) {
	f, err := os.Open(sidecarPath(s.dir, i))
	if err != nil {
		return nil, 0, false
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64*1024)
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			// Trailing bytes without a newline: torn sidecar tail, drop.
			return runs, cover, true
		}
		if err != nil {
			return nil, 0, false
		}
		text := bytes.TrimSpace(line)
		if len(text) == 0 {
			continue
		}
		var e runEntry
		if err := json.Unmarshal(text, &e); err != nil {
			// Unparsable final line is a torn tail; anything after it is
			// corruption — either way the entry is unusable, and only a
			// clean EOF next keeps the prefix trustworthy.
			if _, peekErr := br.Peek(1); peekErr == io.EOF {
				return runs, cover, true
			}
			return nil, 0, false
		}
		if e.Off != cover || e.Len <= 0 || e.N <= 0 ||
			e.Lo < 0 || e.Hi < e.Lo || e.Hi >= s.man.Points ||
			e.Lo%s.man.Shards != i || e.Hi%s.man.Shards != i {
			return nil, 0, false
		}
		runs = append(runs, run{off: e.Off, len: e.Len, n: e.N, lo: e.Lo, hi: e.Hi})
		cover = e.Off + e.Len
	}
}

// OpenRead opens a store for querying without scanning segments whose
// sidecar already indexes them: the manifest is validated exactly as
// Open does, then each segment's index loads from its sidecar, scanning
// only the bytes the sidecar does not cover (none, after a clean close;
// the unindexed tail, after a crash; the whole segment when the sidecar
// is missing, stale or corrupt — including stores written before
// sidecars existed). Nothing on disk is modified, no done bitmap is
// recovered, and mutating methods return ErrReadOnly: the handle serves
// Query, QueryFullScan, AggregateWhere, Each and Results.
func OpenRead(dir string, e *scenario.Expansion) (*Store, error) {
	man, err := readManifest(dir, e)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, man: man, e: e, readOnly: true}
	s.segs = make([]*segment, man.Shards)
	for i := range s.segs {
		seg := &segment{truncateAt: -1}
		s.segs[i] = seg
		runs, cover, ok := s.loadSidecar(i)
		var size int64
		if st, err := os.Stat(segmentPath(s.dir, i)); err == nil {
			size = st.Size()
		}
		if ok && cover <= size {
			seg.idx.runs = runs
			seg.end = cover
			if cover == size {
				continue
			}
		} else {
			// Missing, torn-beyond-repair or stale-past-the-segment
			// sidecar: rebuild this segment's index by a full scan.
			seg.idx = runIndex{}
			seg.end = 0
			cover = 0
			if size > 0 || ok {
				s.rebuilt++
			}
		}
		good, _, err := s.scanSegment(i, cover, func(r scenario.PointResult, lineStart, lineEnd int64) error {
			seg.idx.add(r.Index, s.e.CellOf(r.Index), lineStart, lineEnd)
			return nil
		})
		if err != nil {
			return nil, err
		}
		seg.end = good
	}
	return s, nil
}

// RebuiltSegments reports how many segments OpenRead had to re-index by
// scanning because their sidecar was missing, stale or corrupt. Zero
// after a clean close; always zero on write-mode handles (the writer
// rebuilds every index from its recovery scan regardless).
func (s *Store) RebuiltSegments() int { return s.rebuilt }

// QueryStats accounts one query execution — the evidence that pushdown
// pruned: BytesRead/LinesDecoded cover only the byte runs whose index
// span could match the predicate, versus BytesTotal/RunsTotal for the
// whole store.
type QueryStats struct {
	// SegmentsTouched counts segments with at least one matching run, of
	// SegmentsTotal.
	SegmentsTouched, SegmentsTotal int
	// RunsMatched counts index runs whose span overlapped the plan's
	// selection (and were therefore read), of RunsTotal.
	RunsMatched, RunsTotal int
	// BytesRead is the bytes fetched from matching runs; BytesTotal is
	// every segment's valid extent.
	BytesRead, BytesTotal int64
	// LinesDecoded counts records unmarshalled; Emitted counts records
	// that survived the residual filter and reached the caller.
	LinesDecoded, Emitted int64
}

// snapshotRuns copies the segment's current index and valid extent under
// its lock, so a query sees a consistent point-in-time view while
// appends continue.
func (seg *segment) snapshotRuns() ([]run, int64) {
	seg.mu.Lock()
	defer seg.mu.Unlock()
	return append([]run(nil), seg.idx.runs...), seg.end
}

// Query streams the plan's selection through fn, reading only byte runs
// whose index span can match: per segment, each run is pruned against
// the plan's cell selection and index range arithmetically, matching
// runs are fetched with one ReadAt each, and their records decode,
// validate, pass the residual per-record filter (runs straddling a
// boundary carry non-matching neighbors) and the plan's strategy
// projection before emission. Records arrive in segment order, then
// byte order — exactly QueryFullScan's order, so the two paths are
// byte-for-byte comparable. Safe under concurrent appends: each
// segment's index is snapshotted, and runs only ever describe fully
// written records.
func (s *Store) Query(p *query.Plan, fn func(scenario.PointResult) error) (QueryStats, error) {
	var st QueryStats
	if err := s.checkPlan(p); err != nil {
		return st, err
	}
	st.SegmentsTotal = len(s.segs)
	buf := make([]byte, 0, 256*1024)
	for i, seg := range s.segs {
		runs, end := seg.snapshotRuns()
		st.RunsTotal += len(runs)
		st.BytesTotal += end
		var matched []run
		for _, r := range runs {
			if p.OverlapsSelection(r.lo, r.hi) {
				matched = append(matched, r)
			}
		}
		if len(matched) == 0 {
			continue
		}
		st.SegmentsTouched++
		st.RunsMatched += len(matched)
		f, err := os.Open(segmentPath(s.dir, i))
		if err != nil {
			return st, err
		}
		for _, r := range matched {
			if int64(cap(buf)) < r.len {
				buf = make([]byte, r.len)
			}
			b := buf[:r.len]
			if _, err := f.ReadAt(b, r.off); err != nil {
				f.Close()
				return st, fmt.Errorf("store: reading indexed run of %s: %w", segmentPath(s.dir, i), err)
			}
			st.BytesRead += r.len
			if err := s.emitRun(p, i, r, b, &st, fn); err != nil {
				f.Close()
				return st, err
			}
		}
		f.Close()
	}
	return st, nil
}

// emitRun decodes one fetched byte run and streams its matching records.
func (s *Store) emitRun(p *query.Plan, segIdx int, r run, b []byte, st *QueryStats, fn func(scenario.PointResult) error) error {
	for len(b) > 0 {
		nl := bytes.IndexByte(b, '\n')
		var line []byte
		if nl < 0 {
			line, b = b, nil // sidecar runs end on record boundaries; tolerate anyway
		} else {
			line, b = b[:nl], b[nl+1:]
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		rec, err := scenario.ParseJSONL(line)
		if err != nil {
			return fmt.Errorf("store: %s: corrupt record inside indexed run [%d,%d): %w (delete the .idx sidecar to force a rebuild)",
				segmentPath(s.dir, segIdx), r.off, r.off+r.len, err)
		}
		st.LinesDecoded++
		if err := s.validate(rec, segIdx); err != nil {
			return fmt.Errorf("store: %s: %w", segmentPath(s.dir, segIdx), err)
		}
		if !p.Matches(rec.Index) {
			continue
		}
		out, err := p.Project(rec)
		if err != nil {
			return err
		}
		st.Emitted++
		if err := fn(out); err != nil {
			return err
		}
	}
	return nil
}

// QueryFullScan is Query's oracle: the same selection and projection
// computed the pre-index way, by decoding every record of every segment
// and filtering afterwards. It exists for differential testing and for
// auditing what pushdown saves (its stats count the full scan); results
// are emitted in the same order as Query.
func (s *Store) QueryFullScan(p *query.Plan, fn func(scenario.PointResult) error) (QueryStats, error) {
	var st QueryStats
	if err := s.checkPlan(p); err != nil {
		return st, err
	}
	st.SegmentsTotal = len(s.segs)
	st.SegmentsTouched = len(s.segs)
	for i, seg := range s.segs {
		runs, end := seg.snapshotRuns()
		st.RunsTotal += len(runs)
		st.RunsMatched += len(runs)
		st.BytesTotal += end
		st.BytesRead += end
		_, _, err := s.scanSegment(i, 0, func(r scenario.PointResult, lineStart, lineEnd int64) error {
			if lineEnd > end {
				return nil // appended after the snapshot; keep parity with Query
			}
			st.LinesDecoded++
			if !p.Matches(r.Index) {
				return nil
			}
			out, err := p.Project(r)
			if err != nil {
				return err
			}
			st.Emitted++
			return fn(out)
		})
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// AggregateWhere is the predicate-taking companion of Aggregate: it
// reduces only the plan's selection — through the indexed read path, so
// a selective aggregation stops paying full-store cost — into per-(cell,
// NPTGs, strategy) summary rows that tolerate partial groups. A nil plan
// aggregates everything unprojected (compiling the match-all query).
func (s *Store) AggregateWhere(p *query.Plan) ([]query.GroupRow, QueryStats, error) {
	if p == nil {
		var err error
		p, err = query.Compile(s.e, query.Query{To: query.NoLimit})
		if err != nil {
			return nil, QueryStats{}, err
		}
	}
	agg := query.NewGroupAggregator(p)
	st, err := s.Query(p, agg.Add)
	if err != nil {
		return nil, st, err
	}
	return agg.Rows(), st, nil
}

// checkPlan rejects a plan compiled against a different campaign than
// the store holds.
func (s *Store) checkPlan(p *query.Plan) error {
	if got := p.Expansion().Digest(); got != s.man.SpecDigest {
		return fmt.Errorf("store: plan compiled for campaign digest %.12s, store holds %.12s", got, s.man.SpecDigest)
	}
	return nil
}
