package cache

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ptgsched/internal/jsonl"
	"ptgsched/internal/scenario"
)

// On-disk layout of a cache directory:
//
//	cache.json            manifest: format version + random cache identity
//	seg-<hex>.jsonl       one segment per writer process, append-only
//	seg-<hex>.jsonl.head  seal: record count + final chain proof (atomic
//	                      replace on Sync/Close)
//
// A segment starts with a header line binding it to this cache (the
// manifest identity) and to its own file name, then carries one record
// per line. Each record stores its body's SHA-256 (`sum`) and a chain
// proof `proof = SHA-256(prev_proof ‖ sum)` seeded from a genesis value
// derived from (cache id, segment name) — the audit-log construction:
// bulk data in cheap append-only files, a hash chain for integrity.
// Several processes share one directory safely because every writer owns
// a distinct segment (O_EXCL at creation) and readers only ever scan.
const (
	// FormatVersion is the cache directory format. Readers refuse other
	// versions.
	FormatVersion = 1

	manifestName = "cache.json"
	segPrefix    = "seg-"
	segSuffix    = ".jsonl"
	headSuffix   = ".head"
)

// Class partitions verification failures by what the evidence shows.
// Distinct corruption injections map to distinct classes, so the
// adversarial test battery can assert not only *that* a corruption was
// caught but that it was diagnosed correctly.
type Class int

const (
	// ClassCorrupt: a line is not a parsable record (garbled JSON, bad
	// hex). The rest of the segment is unreadable — the chain cannot be
	// resumed past a record whose proof is unknown.
	ClassCorrupt Class = iota
	// ClassSum: a record parses but its body hashes to a different sum —
	// the payload bytes were altered in place (bit-rot, poisoning).
	ClassSum
	// ClassChain: a record's proof does not extend the running chain —
	// entries were reordered, spliced in from elsewhere, or history was
	// rewritten behind a seal.
	ClassChain
	// ClassForeign: a segment's header binds it to a different cache
	// identity or file name — a segment transplanted from another cache
	// directory (e.g. a different spec region's cache) or renamed.
	ClassForeign
	// ClassTruncated: a sealed segment holds fewer records than its head
	// attests — the file lost committed entries.
	ClassTruncated
)

func (c Class) String() string {
	switch c {
	case ClassCorrupt:
		return "corrupt-record"
	case ClassSum:
		return "sum-mismatch"
	case ClassChain:
		return "chain-mismatch"
	case ClassForeign:
		return "foreign-segment"
	case ClassTruncated:
		return "truncated"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// VerifyError describes one detected corruption. Failed entries are never
// served — the affected points read as misses and are recomputed — so a
// VerifyError is a diagnosis, not a failure of the sweep.
type VerifyError struct {
	Class   Class
	Segment string
	// Record is the zero-based record position within the segment
	// (ignoring the header line); -1 for segment-level classes.
	Record int
	Detail string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("cache: %s: segment %s record %d: %s", e.Class, e.Segment, e.Record, e.Detail)
}

// manifest is the cache.json payload.
type manifest struct {
	Version int    `json:"version"`
	ID      string `json:"id"`
}

// header is a segment's first line.
type header struct {
	Cache   string `json:"cache"`
	Segment string `json:"segment"`
	Version int    `json:"version"`
}

// head is the seal sidecar: the chain state a clean writer left behind.
type head struct {
	Count int    `json:"count"`
	Proof string `json:"proof"`
}

// entry is the in-memory value of one verified record.
type entry struct {
	name       string
	unfairness []float64
	makespan   []float64
	rel        []float64
}

// segState tracks how far a segment has been verified, so Refresh is
// incremental: only bytes past off are read, exactly like the store's
// recovery scan.
type segState struct {
	name    string
	off     int64
	records int
	proof   [32]byte
	started bool // header verified
	dead    bool // unrecoverable (corrupt/foreign/truncated); never rescan
	sealed  head
	hasSeal bool
}

// Stats is a counter snapshot. Hits and misses are counted at Lookup,
// verify failures at Open/Refresh scan time — once per detected
// corruption, not once per affected lookup.
type Stats struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	VerifyFailures uint64 `json:"verify_failures"`
	Entries        int    `json:"entries"`
	Segments       int    `json:"segments"`
}

// Cache is an open cache directory. It is safe for concurrent use; many
// processes may share one directory (each writes its own segment).
type Cache struct {
	dir string
	id  string

	mu      sync.RWMutex
	entries map[Key]entry
	segs    map[string]*segState
	fails   []VerifyError // capped diagnostic log
	buf     []byte        // record encode scratch (put, verifyRecord)

	// The lazily created writer segment.
	own      *os.File
	ownState *segState
	writeErr error

	hits     atomic.Uint64
	misses   atomic.Uint64
	verfails atomic.Uint64
}

// maxFailLog caps the retained VerifyError diagnostics; the counter keeps
// counting past it.
const maxFailLog = 64

// Open opens dir as a cache, creating it (and its manifest) if needed,
// then verifies and loads every segment. Corrupt state never fails Open:
// detected corruption is counted, diagnosed in VerifyErrors, and the
// affected entries read as misses. Open fails only on real I/O errors or
// a manifest from a different format version.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	m, err := loadOrCreateManifest(dir)
	if err != nil {
		return nil, err
	}
	c := &Cache{
		dir:     dir,
		id:      m.ID,
		entries: make(map[Key]entry),
		segs:    make(map[string]*segState),
	}
	if err := c.Refresh(); err != nil {
		return nil, err
	}
	return c, nil
}

func loadOrCreateManifest(dir string) (*manifest, error) {
	path := filepath.Join(dir, manifestName)
	read := func() (*manifest, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var m manifest
		if err := json.Unmarshal(b, &m); err != nil {
			return nil, fmt.Errorf("cache: %s: %w", path, err)
		}
		if m.Version != FormatVersion {
			return nil, fmt.Errorf("cache: %s: format version %d, this build reads %d", path, m.Version, FormatVersion)
		}
		if m.ID == "" {
			return nil, fmt.Errorf("cache: %s: empty cache id", path)
		}
		return &m, nil
	}
	if m, err := read(); err == nil {
		return m, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return nil, err
	}
	m := &manifest{Version: FormatVersion, ID: hex.EncodeToString(raw[:])}
	b, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		if errors.Is(err, os.ErrExist) {
			// Another process won the creation race; adopt its identity.
			return read()
		}
		return nil, err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return nil, err
	}
	return m, f.Close()
}

// Refresh scans every segment for bytes appended since the last scan
// (including whole new segments from other processes), verifying the hash
// chain as it goes. It is cheap when nothing changed — one readdir and
// one stat per live segment — so sweep layers call it at bind time to see
// entries other fleet workers published after this handle opened.
func (c *Cache) Refresh() error {
	names, err := c.listSegments()
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, name := range names {
		st := c.segs[name]
		if st == nil {
			st = &segState{name: name}
			c.segs[name] = st
		}
		if st.dead || st == c.ownState {
			continue
		}
		if err := c.scanSegment(st); err != nil {
			return err
		}
	}
	return nil
}

func (c *Cache) listSegments() ([]string, error) {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, de := range ents {
		n := de.Name()
		if strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// fail records one verification failure: the counter always increments,
// the diagnostic log is capped.
func (c *Cache) fail(v VerifyError) {
	c.verfails.Add(1)
	if len(c.fails) < maxFailLog {
		c.fails = append(c.fails, v)
	}
}

// scanSegment verifies and loads the segment's unread suffix. Called with
// c.mu held.
func (c *Cache) scanSegment(st *segState) error {
	f, err := os.Open(filepath.Join(c.dir, st.name))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil // deleted between readdir and open
		}
		return err
	}
	defer f.Close()

	// (Re)load the seal; another process may have sealed the segment
	// since the last scan.
	if !st.hasSeal {
		if hb, err := os.ReadFile(filepath.Join(c.dir, st.name+headSuffix)); err == nil {
			var h head
			if json.Unmarshal(hb, &h) == nil && h.Count >= 0 {
				st.sealed, st.hasSeal = h, true
			}
		}
	}

	if _, err := f.Seek(st.off, 0); err != nil {
		return err
	}
	// Verified records are staged here and committed only once the whole
	// batch survives the segment-level checks: a truncated seal or a
	// rewritten-history seal mismatch quarantines everything the scan
	// loaded, because the file as a whole has proven untrustworthy. An
	// unparsable record is gentler — the chain-verified prefix before it
	// is still committed; only the unreadable remainder is lost.
	pending := make(map[Key]entry)
	commit := func() {
		for k, e := range pending {
			if _, dup := c.entries[k]; !dup {
				c.entries[k] = e
			}
		}
	}
	br := bufio.NewReaderSize(f, 256*1024)
	var long []byte
	for {
		line, err := jsonl.ReadLine(br, &long)
		if err != nil {
			// A trailing fragment without its newline is a write in
			// flight (or a torn tail): leave off where it is and retry on
			// the next Refresh. Losing an unsealed tail is always safe —
			// those points read as misses.
			break
		}
		rec := bytes.TrimSuffix(line, []byte("\n"))
		if !st.started {
			if !c.verifyHeader(st, rec) {
				return nil // dead, diagnosed by verifyHeader
			}
			st.started = true
			st.off += int64(len(line))
			continue
		}
		fatal := c.verifyRecord(st, rec, pending)
		st.off += int64(len(line))
		st.records++
		if fatal {
			st.dead = true
			commit() // the prefix before the damage chain-verified
			return nil
		}
		if st.hasSeal && st.records == st.sealed.Count {
			var want [32]byte
			if h, err := hex.DecodeString(st.sealed.Proof); err == nil && len(h) == 32 {
				copy(want[:], h)
			}
			if want != st.proof {
				c.fail(VerifyError{Class: ClassChain, Segment: st.name, Record: st.records - 1,
					Detail: "chain proof at seal point does not match sealed head (history rewritten)"})
				st.dead = true
				return nil // quarantine: drop everything this scan staged
			}
		}
	}
	if st.hasSeal && st.records < st.sealed.Count {
		c.fail(VerifyError{Class: ClassTruncated, Segment: st.name, Record: st.records,
			Detail: fmt.Sprintf("segment sealed at %d records, only %d present", st.sealed.Count, st.records)})
		st.dead = true
		return nil // quarantine: the file lost committed records
	}
	commit()
	return nil
}

// verifyHeader checks the segment's binding line. A bad header kills the
// whole segment (one failure), because nothing below it can be trusted.
func (c *Cache) verifyHeader(st *segState, line []byte) bool {
	var h header
	if err := json.Unmarshal(line, &h); err != nil {
		c.fail(VerifyError{Class: ClassCorrupt, Segment: st.name, Record: -1,
			Detail: fmt.Sprintf("unparsable header: %v", err)})
		st.dead = true
		return false
	}
	switch {
	case h.Version != FormatVersion:
		c.fail(VerifyError{Class: ClassCorrupt, Segment: st.name, Record: -1,
			Detail: fmt.Sprintf("segment format version %d", h.Version)})
	case h.Cache != c.id:
		c.fail(VerifyError{Class: ClassForeign, Segment: st.name, Record: -1,
			Detail: fmt.Sprintf("segment belongs to cache %s, this cache is %s", h.Cache, c.id)})
	case h.Segment != st.name:
		c.fail(VerifyError{Class: ClassForeign, Segment: st.name, Record: -1,
			Detail: fmt.Sprintf("segment header names %q", h.Segment)})
	default:
		st.proof = genesis(c.id, st.name)
		return true
	}
	st.dead = true
	return false
}

// verifyRecord checks one record line against the running chain and, when
// clean, stages it into pending. A sum- or chain-level failure skips just
// this record (the chain resumes from the record's own recorded proof, so
// one poisoned entry costs exactly one failure); an unparsable record is
// fatal for the rest of the segment.
func (c *Cache) verifyRecord(st *segState, line []byte, pending map[Key]entry) (fatal bool) {
	pos := st.records
	rec, err := parseRecord(line)
	if err != nil {
		c.fail(VerifyError{Class: ClassCorrupt, Segment: st.name, Record: pos,
			Detail: fmt.Sprintf("unparsable record: %v", err)})
		return true
	}
	keyBytes, kerr := hex.DecodeString(rec.Key)
	sumBytes, serr := hex.DecodeString(rec.Sum)
	proofBytes, perr := hex.DecodeString(rec.Proof)
	if kerr != nil || serr != nil || perr != nil ||
		len(keyBytes) != sha256.Size || len(sumBytes) != sha256.Size || len(proofBytes) != sha256.Size {
		c.fail(VerifyError{Class: ClassCorrupt, Segment: st.name, Record: pos,
			Detail: "malformed key/sum/proof field"})
		return true
	}

	// The chain always advances to the *recorded* proof: successors were
	// chained over what the writer wrote, so a single altered record is
	// exactly one failure, not a cascade.
	prev := st.proof
	copy(st.proof[:], proofBytes)

	body := rec
	body.Sum, body.Proof = "", ""
	if c.buf, err = appendRecord(c.buf[:0], body); err != nil {
		c.fail(VerifyError{Class: ClassCorrupt, Segment: st.name, Record: pos,
			Detail: fmt.Sprintf("remarshal: %v", err)})
		return true
	}
	if sum := sha256.Sum256(c.buf); !bytes.Equal(sum[:], sumBytes) {
		c.fail(VerifyError{Class: ClassSum, Segment: st.name, Record: pos,
			Detail: "record body does not hash to its sum (payload altered in place)"})
		return false
	}
	if want := chain(prev, sumBytes); !bytes.Equal(want[:], proofBytes) {
		c.fail(VerifyError{Class: ClassChain, Segment: st.name, Record: pos,
			Detail: "record proof does not extend the running chain (reordered, spliced, or transplanted)"})
		return false
	}

	var k Key
	copy(k[:], keyBytes)
	if _, dup := pending[k]; !dup {
		pending[k] = entry{name: rec.Name, unfairness: rec.Unfairness, makespan: rec.Makespan, rel: rec.Rel}
	}
	return false
}

func genesis(cacheID, segName string) [32]byte {
	return sha256.Sum256([]byte("ptgsched-cache\x00" + cacheID + "\x00" + segName))
}

func chain(prev [32]byte, sum []byte) [32]byte {
	h := sha256.New()
	h.Write(prev[:])
	h.Write(sum)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// get serves one verified entry.
func (c *Cache) get(k Key) (entry, bool) {
	c.mu.RLock()
	e, ok := c.entries[k]
	c.mu.RUnlock()
	return e, ok
}

// put appends one entry to this process's own segment (creating it on
// first use) and indexes it. Duplicate keys are dropped: the first
// verified value wins, and identical points produce identical payloads
// anyway. Write errors poison the writer — the cache keeps serving reads,
// further publishes are dropped, and the error surfaces on Sync/Close.
func (c *Cache) put(k Key, e entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[k]; dup {
		return
	}
	if c.writeErr != nil {
		c.entries[k] = e // still index it for this handle
		return
	}
	if c.own == nil {
		if err := c.openOwnLocked(); err != nil {
			c.writeErr = err
			c.entries[k] = e
			return
		}
	}
	rec := record{Key: k.String(), Name: e.name, Unfairness: e.unfairness, Makespan: e.makespan, Rel: e.rel}
	var err error
	if c.buf, err = appendRecord(c.buf[:0], rec); err != nil {
		c.writeErr = err
		c.entries[k] = e
		return
	}
	sum := sha256.Sum256(c.buf)
	proof := chain(c.ownState.proof, sum[:])
	rec.Sum, rec.Proof = hex.EncodeToString(sum[:]), hex.EncodeToString(proof[:])
	c.buf, _ = appendRecord(c.buf[:0], rec) // the body encoded, so does the line
	c.buf = append(c.buf, '\n')
	// One write(2) per record, like the store: an append either lands
	// whole or becomes a torn tail the next reader ignores.
	if _, err := c.own.Write(c.buf); err != nil {
		c.writeErr = err
		c.entries[k] = e
		return
	}
	c.ownState.proof = proof
	c.ownState.records++
	c.ownState.off += int64(len(c.buf))
	c.entries[k] = e
}

// openOwnLocked creates this process's writer segment: a fresh O_EXCL
// file named from 8 random bytes, so concurrent writers sharing the
// directory never interleave appends.
func (c *Cache) openOwnLocked() error {
	for attempt := 0; ; attempt++ {
		var raw [8]byte
		if _, err := rand.Read(raw[:]); err != nil {
			return err
		}
		name := segPrefix + hex.EncodeToString(raw[:]) + segSuffix
		f, err := os.OpenFile(filepath.Join(c.dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o666)
		if errors.Is(err, os.ErrExist) && attempt < 4 {
			continue
		}
		if err != nil {
			return err
		}
		hdr, err := json.Marshal(header{Cache: c.id, Segment: name, Version: FormatVersion})
		if err != nil {
			f.Close()
			return err
		}
		hdr = append(hdr, '\n')
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			return err
		}
		st := &segState{name: name, off: int64(len(hdr)), proof: genesis(c.id, name), started: true}
		c.own, c.ownState = f, st
		c.segs[name] = st
		return nil
	}
}

// seal writes the writer segment's head sidecar: its record count and
// final chain proof, replaced atomically. A sealed segment can no longer
// be silently truncated; an unsealed tail (the SIGKILL case) stays
// chain-verified but truncation-undetectable, which only ever costs
// recomputation.
func (c *Cache) sealLocked() error {
	if c.own == nil || c.ownState.records == 0 {
		return nil
	}
	h := head{Count: c.ownState.records, Proof: hex.EncodeToString(c.ownState.proof[:])}
	b, err := json.Marshal(h)
	if err != nil {
		return err
	}
	path := filepath.Join(c.dir, c.ownState.name+headSuffix)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o666); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Sync flushes and seals the writer segment (fsync + head replace) and
// reports any write error a Publish swallowed.
func (c *Cache) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.writeErr != nil {
		return c.writeErr
	}
	if c.own == nil {
		return nil
	}
	if err := c.own.Sync(); err != nil {
		return err
	}
	return c.sealLocked()
}

// Close seals and closes the writer segment. The Cache keeps serving
// lookups afterwards; publishes become no-ops on disk.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.own == nil {
		return c.writeErr
	}
	err := c.writeErr
	if err == nil {
		err = c.sealLocked()
	}
	if cerr := c.own.Close(); err == nil {
		err = cerr
	}
	c.own = nil
	return err
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.RLock()
	entries, segs := len(c.entries), len(c.segs)
	c.mu.RUnlock()
	return Stats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		VerifyFailures: c.verfails.Load(),
		Entries:        entries,
		Segments:       segs,
	}
}

// VerifyErrors returns the retained corruption diagnoses (capped; the
// Stats counter is exhaustive).
func (c *Cache) VerifyErrors() []VerifyError {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]VerifyError, len(c.fails))
	copy(out, c.fails)
	return out
}

// Bound is a Cache scoped to one expansion: it implements scenario.Memo,
// deriving each point's content address under that expansion's spec
// digest. Bound is safe for concurrent use.
type Bound struct {
	c      *Cache
	e      *scenario.Expansion
	digest string
}

// Bind scopes the cache to an expansion. The returned Bound is the memo
// handed to a sweep (scenario.SweepOptions.Memo, Store.UseMemo) — lookups
// hit only entries whose chain verified AND whose stored point name
// matches the requested point exactly (a defense-in-depth check over the
// content address).
func (c *Cache) Bind(e *scenario.Expansion) *Bound {
	return &Bound{c: c, e: e, digest: e.Digest()}
}

// Lookup implements scenario.Memo: a verified entry for the point's
// content address, rehydrated into the requesting expansion's coordinate
// frame (Index and Cell are campaign-relative; the measurement is not).
func (b *Bound) Lookup(p scenario.Point) (scenario.PointResult, bool) {
	k := KeyFor(b.e, b.digest, p)
	e, ok := b.c.get(k)
	if !ok || e.name != p.Name {
		b.c.misses.Add(1)
		return scenario.PointResult{}, false
	}
	b.c.hits.Add(1)
	return scenario.PointResult{
		Index: p.Index, Cell: p.Cell, Name: p.Name,
		Unfairness: append([]float64(nil), e.unfairness...),
		Makespan:   append([]float64(nil), e.makespan...),
		Rel:        append([]float64(nil), e.rel...),
	}, true
}

// Publish implements scenario.Memo: best-effort, duplicate-safe append of
// a freshly computed result.
func (b *Bound) Publish(p scenario.Point, r scenario.PointResult) {
	k := KeyFor(b.e, b.digest, p)
	b.c.put(k, entry{name: r.Name, unfairness: r.Unfairness, makespan: r.Makespan, rel: r.Rel})
}
