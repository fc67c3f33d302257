package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"ptgsched/internal/query"
	"ptgsched/internal/scenario"
)

// This file is the store's sparse segment index: per segment, an
// in-memory list of runs mapping point-index spans to byte-offset spans,
// so a selective query reads only the byte ranges whose runs can match
// its predicate instead of decoding every segment line.
//
// The index lives in memory only. Both opens build it from the one
// recovery scan that also rebuilds the done bitmap (recoverSegment), and
// a writer extends it on every append under the segment lock, so its
// runs tile exactly the segment's valid records: run k starts where run
// k-1 ended, and the last run ends at the segment's valid extent.
//
// Runs are kept sparse by construction (see runIndex.add): a run seals
// at maxRunRecords and at every cell boundary — so with cell-ordered
// appends (the single-writer sweep) runs align to cells exactly and
// family/strategy predicates prune them precisely — while adversarially
// interleaved appends, which would otherwise degenerate to one run per
// record, are bounded by compaction: past maxRunsPerSegment, adjacent
// runs merge pairwise into coarser spans that still prune by index
// range. The index therefore holds at most maxRunsPerSegment runs of 40 B
// each on 64-bit — 2.6 MB per segment before slice slack — no matter the
// append order, preserving the store's memory-flat promise
// (TestCompactionKeepsQueriesExact).

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

// runIndex is one segment's in-memory index: runs in byte order, the
// last one open (absorbing appends) until a record of another cell, the
// run's size cap or a compaction seals it.
type runIndex struct {
	runs     []run
	open     bool
	lastCell int
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
}

// OpenRead opens a store for querying. It validates the manifest and
// recovers every segment by the same scan Open runs, so it accepts
// exactly the stores Open accepts and its done bitmap, Progress and index
// equal a writer's. It holds no write descriptor, leaves a torn tail in
// place (the segment may belong to a live shard process), and its
// mutating methods return ErrReadOnly: the handle serves Query,
// QueryFullScan, AggregateWhere, Each and the progress readers.
func OpenRead(dir string, e *scenario.Expansion) (*Store, error) {
	return open(dir, e, true)
}

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
	// LinesDecoded counts lines read and validated, converted or not;
	// Emitted counts records that survived the residual filter and
	// reached the caller.
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
			line, b = b, nil // runs end on record boundaries; tolerate anyway
		} else {
			line, b = b[:nl], b[nl+1:]
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		// The projected direct path converts only what is emitted: the
		// projected column of a matching record, nothing of a neighbor.
		// A line it refuses takes the full decode and Project, whose
		// errors are the reader's.
		h := scenario.ParseHead(line)
		col := scenario.NoColumn
		if p.Matches(h.Index) {
			col = p.ProjectColumn(h.Cell)
		}
		rec, direct := h.Keep(col)
		var err error
		if !direct {
			if rec, err = scenario.ParseJSONL(line); err != nil {
				return fmt.Errorf("store: %s: corrupt record inside indexed run [%d,%d): %w",
					segmentPath(s.dir, segIdx), r.off, r.off+r.len, err)
			}
		}
		st.LinesDecoded++
		if err = s.validate(rec, segIdx); err != nil {
			return fmt.Errorf("store: %s: %w", segmentPath(s.dir, segIdx), err)
		}
		if !p.Matches(rec.Index) {
			continue
		}
		if !direct {
			if rec, err = p.Project(rec); err != nil {
				return err
			}
		}
		st.Emitted++
		if err := fn(rec); err != nil {
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
		_, _, err := s.scanSegment(i, scenario.AllColumns, func(r scenario.PointResult, lineStart, lineEnd int64) error {
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
