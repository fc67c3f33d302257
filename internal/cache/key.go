// Package cache is a content-addressed, tamper-evident result cache for
// campaign points. Every scenario point is a deterministic function of
// (spec digest, global index); the cache names each point by a SHA-256
// digest of the point's fully resolved identity — itself a pure function
// of those two coordinates — and stores its measurement in append-only
// hash-chained segments, so a shared cache directory is *verified rather
// than trusted*: bit-rot, truncation, reordering, splicing or foreign
// entries are detected on read and the affected points transparently fall
// back to recomputation.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"ptgsched/internal/jsonl"
	"ptgsched/internal/scenario"
)

// KeyVersion is baked into every per-point digest. Bump it whenever the
// meaning of a measurement changes (engine semantics, simulator
// constants), so stale caches miss instead of serving results computed
// under different physics.
const KeyVersion = 1

// Key is a per-point content address: SHA-256 over the point's canonical
// identity (see KeyFor).
type Key [sha256.Size]byte

// String renders the key as lowercase hex, the wire form used in cache
// segment records.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyFor derives point p's content address under expansion e. specDigest
// must be scenario.SpecDigest(e.Spec); it is passed in so per-sweep
// callers (Bound) hash the spec once, not once per point. The result is a
// pure function of (spec digest, global index): the identity record is
// fully determined by the expansion arithmetic, which those two
// coordinates pin.
func KeyFor(e *scenario.Expansion, specDigest string, p scenario.Point) Key {
	var stack [1024]byte
	b, err := appendIdentity(stack[:0], e, specDigest, p)
	if err != nil {
		// The identity record is plain data; an encoding failure (a
		// non-finite µ, speed or rate) is an engine bug, not an input
		// condition.
		panic(fmt.Sprintf("cache: encode point identity: %v", err))
	}
	return Key(sha256.Sum256(b))
}

// appendIdentity appends point p's identity record, the canonical JSON
// the key hashes: the bytes json.Marshal gives the identity struct
// key_test.go keeps as its oracle, field by field in that struct's
// order. The record pins everything a point's measurement depends on and
// nothing it doesn't:
//
//   - static (offline and online-arrivals) cells resolve to the cell's
//     semantics — family grid point (the label prints every grid
//     parameter), strategies with their µ, resolved platform, NPTGs
//     value, repetition, derived run seed, arrival process — so two
//     *different* campaigns whose expansions share a cell region produce
//     identical keys for the shared points and memoize across specs;
//   - dynamic cells (non-empty events axis) additionally pin the campaign
//     spec digest and the global point index, because the event timeline
//     is drawn from exactly that pair (Expansion.TimelineFor); their
//     entries are therefore campaign-private by construction.
//
// Coordinates that only relocate a point without changing its physics —
// shard layout, worker count, cell index, NPTGs *index* (the run seed
// already encodes it) — are deliberately absent: the key is invariant
// under every execution layout, which the key-determinism property suite
// asserts.
func appendIdentity(buf []byte, e *scenario.Expansion, specDigest string, p scenario.Point) ([]byte, error) {
	c, pf := e.Cells[p.Cell], e.Platforms[p.Platform]
	var err error
	buf = strconv.AppendInt(append(buf, `{"v":`...), KeyVersion, 10)
	buf = jsonl.AppendString(append(buf, `,"cell":`...), c.Label)
	buf = jsonl.AppendString(append(buf, `,"family":`...), c.Family.String())
	buf = append(buf, `,"strategies":[`...)
	for i, st := range c.Config.Strategies {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = jsonl.AppendString(append(buf, `{"name":`...), st.Name())
		if buf, err = jsonl.AppendFloat(append(buf, `,"mu":`...), st.Mu); err != nil {
			return buf, err
		}
		buf = append(buf, '}')
	}
	buf = jsonl.AppendString(append(buf, `],"platform":{"name":`...), pf.Name)
	buf = strconv.AppendBool(append(buf, `,"shared_switch":`...), pf.SharedSwitch)
	buf = append(buf, `,"clusters":[`...)
	for i, cl := range pf.Clusters {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = jsonl.AppendString(append(buf, `{"name":`...), cl.Name)
		buf = strconv.AppendInt(append(buf, `,"procs":`...), int64(cl.Procs), 10)
		if buf, err = jsonl.AppendFloat(append(buf, `,"speed":`...), cl.Speed); err != nil {
			return buf, err
		}
		buf = append(buf, '}')
	}
	buf = strconv.AppendInt(append(buf, `]},"nptgs":`...), int64(p.NPTGs), 10)
	buf = strconv.AppendInt(append(buf, `,"rep":`...), int64(p.Rep), 10)
	buf = strconv.AppendInt(append(buf, `,"seed":`...), p.Seed, 10)
	if c.Online != nil {
		buf = jsonl.AppendString(append(buf, `,"online":{"process":`...), c.Online.Process.String())
		if buf, err = jsonl.AppendFloat(append(buf, `,"rate":`...), c.Online.Rate); err != nil {
			return buf, err
		}
		buf = append(buf, '}')
	}
	// Static cells leave the campaign coordinates neutral so equal points
	// of different specs collide (that is the cross-campaign
	// memoization); dynamic cells pin them.
	campaign, index := "", -1
	if c.Policy != "" {
		campaign, index = specDigest, p.Index
	}
	buf = jsonl.AppendString(append(buf, `,"policy":`...), c.Policy)
	buf = jsonl.AppendString(append(buf, `,"campaign":`...), campaign)
	buf = strconv.AppendInt(append(buf, `,"index":`...), int64(index), 10)
	return append(buf, '}'), nil
}
