// Package store implements the durable campaign result store: an
// append-only, crash-tolerant directory of per-point results that lets a
// killed sweep resume exactly where it stopped and still aggregate
// bit-identically to an uninterrupted run. The store is memory-flat: the
// only per-point state a handle keeps is the done bitmap (one bit per
// point) — results live on disk only, and Results/Aggregate re-scan the
// JSONL segments, streaming each record into the caller (or the
// scenario.Aggregator) instead of holding the set resident. Campaign size
// is therefore bounded by disk, not RAM.
//
// On-disk format (documented in docs/ARCHITECTURE.md):
//
//	DIR/manifest.json    — Manifest: format version, campaign name, the
//	                       canonical spec digest (scenario.SpecDigest), the
//	                       expansion cardinality and the shard layout.
//	DIR/segment-NNNN.jsonl — one append-only JSONL segment per shard; a
//	                       point with global index i lives in segment
//	                       i mod Shards (exactly scenario's shard
//	                       partition). Each line is one scenario.PointResult
//	                       in the bit-exact campaign wire format.
//
// Durability and recovery rules: every Append writes one whole line with a
// single write(2) call to an O_APPEND file, so a crash — SIGKILL, OOM, power
// loss mid-write — can tear at most the final line of each segment. Open
// recovers by dropping an incomplete or unparsable final line; the
// physical truncation back to the last good record is deferred until this
// process first appends to that segment, so opening a shared store never
// mutates segments owned by other still-running shard processes. A
// malformed line anywhere *before* the end is real corruption and fails
// loudly. Every recovered
// record is validated against the expansion (index range, segment
// congruence, cell agreement), and the manifest's spec digest must match
// the expansion's, so a store can never silently resume a different sweep.
//
// Concurrency: one Store may be appended to by any number of goroutines
// (appends to the same segment serialize on a per-segment mutex); Sweep
// fans pending points over the scenario sweep's pool and appends each
// result as it completes. Multiple *processes* may share one store
// directory only if they write disjoint shards (the ptgbench -shard
// workflow); the manifest is written once by whoever creates the store.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"ptgsched/internal/bitset"
	"ptgsched/internal/jsonl"
	"ptgsched/internal/scenario"
)

// ErrFailed poisons a Store whose segment write failed: the failed record
// may be half on disk, so further appends through the same handle could
// concatenate onto the torn bytes and turn a recoverable tail into
// mid-segment corruption. Reopen the store — Open truncates the torn tail
// and the point becomes pending again.
var ErrFailed = errors.New("store: a previous append failed; reopen the store to recover")

// FormatVersion identifies the on-disk layout; Open rejects manifests
// written by a newer, unknown layout.
const FormatVersion = 1

// manifestName is the manifest file inside a store directory.
const manifestName = "manifest.json"

// Manifest pins a store directory to one campaign expansion.
type Manifest struct {
	// Version is the on-disk format version (FormatVersion).
	Version int `json:"version"`
	// Name echoes the spec's campaign name.
	Name string `json:"name,omitempty"`
	// SpecDigest is scenario.SpecDigest of the campaign spec; Open refuses
	// a store whose digest differs from the expansion it is opened with.
	SpecDigest string `json:"spec_digest"`
	// Points is the expansion cardinality.
	Points int `json:"points"`
	// Shards is the segment layout: point i lives in segment i mod Shards.
	Shards int `json:"shards"`
}

// ShardState describes one segment's progress.
type ShardState struct {
	// Index is the segment index (= shard index of the modulo partition).
	Index int `json:"index"`
	// Points is the number of expansion points the segment owns.
	Points int `json:"points"`
	// Completed is the number of results it holds.
	Completed int `json:"completed"`
}

// Progress is a point-in-time snapshot of a store's completion state.
type Progress struct {
	Completed int          `json:"completed"`
	Total     int          `json:"total"`
	Shards    []ShardState `json:"shards"`
}

// Store is an open campaign result store. Create and Open are the
// constructors of a writer, OpenRead of a read-only handle; Close releases
// the segment files. During Sweep the handle
// holds exactly one bit of per-point state (the done bitmap); completed
// results are never resident — Results and Aggregate re-scan the segments.
type Store struct {
	dir string
	man Manifest
	e   *scenario.Expansion

	segs []*segment

	mu        sync.Mutex // guards done/completed
	done      bitset.Set // one bit per global point index
	completed int

	failed atomic.Bool // sticky append-failure flag; Sweep drains fast once set

	// memo, when set via UseMemo, is consulted by Sweep before computing
	// a point and offered every freshly computed result — the
	// content-addressed cache hook. The store's own durability is
	// unchanged: hits are appended to segments exactly like computed
	// results.
	memo scenario.Memo

	// readOnly marks a handle from OpenRead: no write fds are held, a
	// torn tail stays on disk, and mutations return ErrReadOnly.
	readOnly bool
}

// segment is one append-only JSONL file.
type segment struct {
	mu     sync.Mutex
	f      *os.File
	points int // expansion points owned by this segment
	// truncateAt ≥ 0 marks a torn tail found at Open: the file is
	// physically truncated back to this offset immediately before this
	// process's first append to the segment. Deferring the truncation
	// keeps Open read-only on segments owned by other still-running shard
	// processes (a shared-filesystem reader can misclassify a foreign
	// in-flight append as torn; it must not destroy it).
	truncateAt int64

	// end is the byte offset just past the last valid record — the offset
	// the next append lands at (the torn tail, if any, is above it and
	// gone before the write). Maintained under mu.
	end int64
	// idx is the segment's sparse byte-run index (see index.go), built
	// by the recovery scan at open and extended on every append.
	idx runIndex
}

// segmentPath names segment i of a store directory.
func segmentPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("segment-%04d.jsonl", i))
}

// Create initializes dir as a new store for the expansion, partitioned into
// shards segments (shards < 1 means 1). dir must not already contain a
// store; a fresh or empty directory is created as needed.
func Create(dir string, e *scenario.Expansion, shards int) (*Store, error) {
	if shards < 1 {
		shards = 1
	}
	if shards > e.NumPoints() && e.NumPoints() > 0 {
		return nil, fmt.Errorf("store: %d shards for %d points", shards, e.NumPoints())
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Refuse to build a store around stale segments (e.g. a directory
	// whose manifest was deleted to "reset" it): records invisible to
	// this run's done-set would be concatenated with fresh ones and brick
	// the store at the next Open with duplicate-point errors.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, ent := range entries {
		if !ent.IsDir() && (strings.HasSuffix(ent.Name(), ".jsonl") || strings.HasSuffix(ent.Name(), ".idx")) {
			return nil, fmt.Errorf("store: %s already contains segment %s (empty the directory, or open the store it belongs to)",
				dir, ent.Name())
		}
	}
	man := Manifest{
		Version:    FormatVersion,
		Name:       e.Spec.Name,
		SpecDigest: e.Digest(),
		Points:     e.NumPoints(),
		Shards:     shards,
	}
	mb, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, err
	}
	// O_EXCL makes creation the atomic claim on the directory: two
	// concurrent creators cannot both succeed and leave segments laid out
	// under two different manifests.
	mf, err := os.OpenFile(filepath.Join(dir, manifestName), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("store: %s already holds a store (open it instead)", dir)
		}
		return nil, err
	}
	if _, err := mf.Write(append(mb, '\n')); err != nil {
		mf.Close()
		return nil, err
	}
	if err := mf.Close(); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, man: man, e: e, done: bitset.New(e.NumPoints())}
	s.makeSegments()
	if err := s.openSegments(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Open opens an existing store and recovers its completed-point bitmap:
// each segment is scanned in a streaming pass (records are validated and
// their done bits set, never retained), a torn final line (the footprint
// of a crash mid-append) is dropped — its point becomes pending again, and
// the torn bytes are physically truncated just before this process first
// appends to that segment. The manifest must match the expansion — same
// spec digest, same cardinality — so stale or foreign directories fail
// instead of resuming the wrong sweep.
func Open(dir string, e *scenario.Expansion) (*Store, error) {
	return open(dir, e, false)
}

// open is Open and OpenRead: it validates the manifest and recovers every
// segment before a writer opens any file for writing.
func open(dir string, e *scenario.Expansion, readOnly bool) (*Store, error) {
	man, err := readManifest(dir, e)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, man: man, e: e, done: bitset.New(e.NumPoints()), readOnly: readOnly}
	s.makeSegments()
	for i := range s.segs {
		if err := s.recoverSegment(i); err != nil {
			return nil, err
		}
	}
	if !readOnly {
		if err := s.openSegments(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// readManifest reads and validates a store directory's manifest against
// the expansion — the gate shared by Open and OpenRead.
func readManifest(dir string, e *scenario.Expansion) (Manifest, error) {
	var man Manifest
	mb, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return man, fmt.Errorf("store: %s is not a store: %w", dir, err)
	}
	if err := json.Unmarshal(mb, &man); err != nil {
		return man, fmt.Errorf("store: %s: invalid manifest: %w", dir, err)
	}
	if man.Version != FormatVersion {
		return man, fmt.Errorf("store: %s: format version %d, this build reads %d", dir, man.Version, FormatVersion)
	}
	if got, want := e.Digest(), man.SpecDigest; got != want {
		return man, fmt.Errorf("store: %s was written by a different campaign spec (digest %.12s, expansion has %.12s)", dir, want, got)
	}
	if man.Points != e.NumPoints() {
		return man, fmt.Errorf("store: %s records %d points, expansion has %d", dir, man.Points, e.NumPoints())
	}
	if man.Shards < 1 || (man.Points > 0 && man.Shards > man.Points) {
		// The same invariant Create enforces; a corrupt shard count must
		// not drive openSegments into fabricating files.
		return man, fmt.Errorf("store: %s: invalid shard count %d for %d points", dir, man.Shards, man.Points)
	}
	return man, nil
}

// makeSegments allocates the segment table and counts the expansion
// points each segment owns: segment k owns the points congruent to k
// modulo Shards, counted arithmetically instead of enumerating the (lazy)
// point set.
func (s *Store) makeSegments() {
	n, shards := s.e.NumPoints(), s.man.Shards
	s.segs = make([]*segment, shards)
	for i := range s.segs {
		s.segs[i] = &segment{points: n / shards, truncateAt: -1}
		if i < n%shards {
			s.segs[i].points++
		}
	}
}

// openSegments opens every segment file for append — creating any that do
// not exist yet, e.g. the segment of a shard that never started.
func (s *Store) openSegments() error {
	for i, seg := range s.segs {
		f, err := os.OpenFile(segmentPath(s.dir, i), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		seg.f = f
	}
	return nil
}

// scanSegment streams one segment's records through fn in a single
// buffered pass, without ever holding the segment resident. It applies the
// crash-recovery classification shared by Open and the re-scan readers:
// a final line without a newline, or an unparsable final line, is a torn
// tail — skipped, with the offset of the last good byte returned — while
// a malformed line before the end is real corruption and fails. A
// missing segment (a shard that never started) scans as empty. fn
// receives each record with its byte extent [lineStart, lineEnd), read
// through the projected direct path keeping col: scenario.AllColumns for
// readers of the results, scenario.NoColumn for the recovery scan, which
// needs only each record's index, cell and verdict. A line the direct path
// refuses goes to scenario.ParseJSONL, whose verdict classifies it.
// goodEnd is the byte offset just past the last valid record; size is
// the segment's total length.
func (s *Store) scanSegment(idx, col int, fn func(r scenario.PointResult, lineStart, lineEnd int64) error) (goodEnd, size int64, err error) {
	path := segmentPath(s.dir, idx)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()

	br := bufio.NewReaderSize(f, 256*1024)
	var off int64
	var long []byte
	for {
		line, err := jsonl.ReadLine(br, &long)
		size = off + int64(len(line))
		if err == io.EOF {
			// Trailing bytes without a newline: a torn final line (or a
			// clean end when the tail is empty).
			return off, size, nil
		}
		if err != nil {
			return off, size, err
		}
		text := line[:len(line)-1]
		if len(bytes.TrimSpace(text)) == 0 {
			off = size
			continue
		}
		h := scenario.ParseHead(text)
		r, ok := h.Keep(col)
		if !ok {
			r, err = scenario.ParseJSONL(text)
		}
		if err != nil {
			// Peek: if nothing follows this line, it is the final line and
			// parsed as garbage — a torn write (crashed between the payload
			// and its newline landing). Anything after it means mid-segment
			// corruption.
			if _, peekErr := br.Peek(1); peekErr == io.EOF {
				return off, size, nil
			}
			return off, size, fmt.Errorf("store: %s: corrupt record before end of segment: %w", path, err)
		}
		if err := s.validate(r, idx); err != nil {
			return off, size, fmt.Errorf("store: %s: %w", path, err)
		}
		if err := fn(r, off, size); err != nil {
			return off, size, err
		}
		off = size
	}
}

// recoverSegment replays one segment's records into the done bitmap —
// records themselves are not retained — and builds the segment's sparse
// index and valid extent from the same pass. A torn tail is dropped from
// the recovered state; a writer truncates it just before its first append
// to the segment (see segment.truncateAt), a reader never does.
func (s *Store) recoverSegment(idx int) error {
	path := segmentPath(s.dir, idx)
	seg := s.segs[idx]
	good, size, err := s.scanSegment(idx, scenario.NoColumn, func(r scenario.PointResult, lineStart, lineEnd int64) error {
		if s.done.Set(r.Index) {
			return fmt.Errorf("store: %s: duplicate result for point %d", path, r.Index)
		}
		s.completed++
		seg.idx.add(r.Index, s.e.CellOf(r.Index), lineStart, lineEnd)
		return nil
	})
	if err != nil {
		return err
	}
	seg.end = good
	if good < size {
		seg.truncateAt = good
	}
	return nil
}

// validate checks one record against the expansion and the shard layout.
func (s *Store) validate(r scenario.PointResult, seg int) error {
	if r.Index < 0 || r.Index >= s.e.NumPoints() {
		return fmt.Errorf("point index %d outside expansion [0,%d)", r.Index, s.e.NumPoints())
	}
	if r.Index%s.man.Shards != seg {
		return fmt.Errorf("point %d does not belong to segment %d of %d", r.Index, seg, s.man.Shards)
	}
	if r.Cell != s.e.CellOf(r.Index) {
		return fmt.Errorf("point %d is for cell %d, expansion says %d", r.Index, r.Cell, s.e.CellOf(r.Index))
	}
	return nil
}

// Manifest returns the store's manifest.
func (s *Store) Manifest() Manifest { return s.man }

// Append durably records one point result: the JSONL line is written with a
// single write call to the point's O_APPEND segment, so a crash tears at
// most the final line (which Open truncates away). Appending a point that
// the store already holds is an error — resume flows skip completed points,
// so a duplicate means two writers raced on the same shard.
func (s *Store) Append(r scenario.PointResult) error {
	return s.append(r, nil)
}

// append is Append with an optional caller-owned encode buffer: Sweep's
// workers pass theirs so the per-point line encoding reuses one buffer per
// worker instead of allocating per record. The encoding (AppendJSONL) is
// byte-identical to json.Marshal, so segment files do not change.
func (s *Store) append(r scenario.PointResult, buf *[]byte) error {
	if s.readOnly {
		return ErrReadOnly
	}
	if s.failed.Load() {
		return ErrFailed
	}
	// validate rejects an out-of-range index before the modulo below can
	// pick a segment from it.
	if err := s.validate(r, r.Index%s.man.Shards); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	seg := s.segs[r.Index%s.man.Shards]
	var line []byte
	var err error
	if buf != nil {
		*buf, err = scenario.AppendJSONL((*buf)[:0], r)
		line = *buf
	} else {
		line, err = scenario.AppendJSONL(nil, r)
	}
	if err != nil {
		return err
	}

	// The done bit is claimed before the write (two racing writers must
	// not both append); completed is counted only after the write lands,
	// so a failed append never inflates progress reporting — the store is
	// poisoned (ErrFailed) at that point and must be reopened anyway.
	s.mu.Lock()
	if s.done.Set(r.Index) {
		s.mu.Unlock()
		return fmt.Errorf("store: point %d already recorded", r.Index)
	}
	s.mu.Unlock()

	seg.mu.Lock()
	if seg.truncateAt >= 0 {
		// First append since recovery found a torn tail here: this
		// process owns the segment now, so drop the torn bytes before
		// they can be concatenated onto.
		if err := seg.f.Truncate(seg.truncateAt); err != nil {
			seg.mu.Unlock()
			s.failed.Store(true)
			return fmt.Errorf("store: truncating torn tail before append: %w", err)
		}
		seg.truncateAt = -1
	}
	_, err = seg.f.Write(line)
	if err == nil {
		// Extend the sparse index under the same lock that ordered the
		// write, so run offsets mirror the file exactly.
		lineStart := seg.end
		seg.end += int64(len(line))
		seg.idx.add(r.Index, r.Cell, lineStart, seg.end)
	}
	seg.mu.Unlock()
	if err != nil {
		// The record may be half on disk; mark the store failed so Sweep
		// stops, and leave recovery to the next Open's torn-tail rule.
		s.failed.Store(true)
		return fmt.Errorf("store: appending point %d: %w", r.Index, err)
	}
	s.mu.Lock()
	s.completed++
	s.mu.Unlock()
	return nil
}

// IsDone reports whether the store already holds point i's result — the
// predicate a resumed sweep skips completed points with.
func (s *Store) IsDone(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done.Get(i)
}

// CountDone returns how many of the set's points the store already holds.
func (s *Store) CountDone(set scenario.IndexSet) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.countDoneLocked(set)
}

func (s *Store) countDoneLocked(set scenario.IndexSet) int {
	if set.Offset == 0 && set.Stride <= 1 {
		return s.done.CountRange(set.Limit)
	}
	n := 0
	for j, l := 0, set.Len(); j < l; j++ {
		if s.done.Get(set.At(j)) {
			n++
		}
	}
	return n
}

// Progress snapshots completion per shard and overall.
func (s *Store) Progress() Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	pr := Progress{Completed: s.completed, Total: s.e.NumPoints()}
	for i, seg := range s.segs {
		done := s.countDoneLocked(scenario.IndexSet{Limit: s.e.NumPoints(), Offset: i, Stride: s.man.Shards})
		pr.Shards = append(pr.Shards, ShardState{Index: i, Points: seg.points, Completed: done})
	}
	return pr
}

// Each re-scans the store's segments and streams every completed result
// through fn, segment by segment, without materializing the set — the
// memory-flat read path. Records arrive in segment order (within a
// segment, append order), not global point order; feed a
// scenario.Aggregator, which accepts any order. A torn trailing line
// (from a crash that has not been resumed yet) is skipped, exactly as
// Open's recovery classifies it.
func (s *Store) Each(fn func(scenario.PointResult) error) error {
	for i := 0; i < s.man.Shards; i++ {
		if _, _, err := s.scanSegment(i, scenario.AllColumns, func(r scenario.PointResult, _, _ int64) error {
			return fn(r)
		}); err != nil {
			return err
		}
	}
	return nil
}

// Aggregate reduces a complete store into per-cell summary tables by
// streaming the segments into a scenario.Aggregator — results are never
// resident, so a resumed multi-million-point sweep aggregates in
// slot-bounded memory, bit-identically to an uninterrupted run.
func (s *Store) Aggregate() ([]scenario.Table, error) {
	agg := s.e.NewAggregator()
	if err := s.Each(agg.Add); err != nil {
		return nil, err
	}
	return agg.Tables()
}

// UseMemo attaches a per-point memoization source (typically a bound
// content-addressed cache) consulted by Sweep: a memoized point is
// appended without recomputation. Set it before Sweep runs; it must not
// be changed while a sweep is in flight.
func (s *Store) UseMemo(m scenario.Memo) { s.memo = m }

// PublishTo streams every completed result of the store into a memo —
// the store side of "completed segments are a cache source": a finished
// (or partially finished) campaign store seeds a shared cache so other
// campaigns, jobs and fleet workers skip its points. It works on
// read-only handles and returns the number of results offered.
func (s *Store) PublishTo(m scenario.Memo) (int, error) {
	n := 0
	err := s.Each(func(r scenario.PointResult) error {
		m.Publish(s.e.PointAt(r.Index), r)
		n++
		return nil
	})
	return n, err
}

// Sweep is the durable shape of scenario's Sweep: it runs every pending
// point of the set (the full expansion or one shard), appending each
// result as it completes, and reports how many points it ran and how many
// were already recorded. The set is an index predicate and the skip test
// is one bitmap read, so a resumed sweep carries no per-point bookkeeping
// beyond the done bitmap. Segments fill in completion order; each record
// is bit-identical at every worker count and across any kill/resume
// split, because each point derives everything from its own seed.
func (s *Store) Sweep(set scenario.IndexSet, workers int) (ran, skipped int, err error) {
	if s.readOnly {
		return 0, 0, ErrReadOnly
	}
	if s.failed.Load() {
		return 0, 0, ErrFailed
	}
	skipped = s.CountDone(set)
	o := scenario.SweepOptions{Workers: workers, Memo: s.memo, Skip: s.IsDone}
	// One JSONL encode buffer per pool slot, reused across all the points
	// the slot sweeps.
	bufs := make([][]byte, o.Slots(set.Len()))
	var (
		errMu sync.Mutex
		root  error
	)
	err = s.e.Sweep(set, o, func(slot int, r scenario.PointResult) error {
		err := s.append(r, &bufs[slot])
		if err != nil && !errors.Is(err, ErrFailed) {
			errMu.Lock()
			if root == nil {
				root = err
			}
			errMu.Unlock()
		}
		return err
	})
	// A slot racing in after the failing append sees only the poisoned
	// handle's bare ErrFailed and may report it first; that must not
	// shadow the root cause.
	if root != nil {
		err = root
	}
	if err != nil {
		return 0, skipped, err
	}
	return set.Len() - skipped, skipped, nil
}

// Sync flushes every segment to stable storage (fsync). Append itself does
// not fsync — a SIGKILL'd process loses nothing because the page cache
// survives it — so callers that must survive machine crashes call Sync at
// checkpoints.
func (s *Store) Sync() error {
	for _, seg := range s.segs {
		seg.mu.Lock()
		var err error
		if seg.f != nil {
			err = seg.f.Sync()
		}
		seg.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Close releases the segment files. The store's data is already on disk;
// Close only drops the handles.
func (s *Store) Close() error {
	var first error
	for _, seg := range s.segs {
		seg.mu.Lock()
		if seg.f != nil {
			if err := seg.f.Close(); err != nil && first == nil {
				first = err
			}
			seg.f = nil
		}
		seg.mu.Unlock()
	}
	return first
}
