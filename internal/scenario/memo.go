package scenario

// Memo is a per-point memoization source, handed to a sweep as
// SweepOptions.Memo (directly, through Store.UseMemo, or by the service
// and the fleet coordinator): Lookup is asked for a point's result before
// it is computed, and Publish is offered the result after a miss was
// computed. Implementations decide what "known" means — the canonical one
// is the content-addressed cache (internal/cache), which only answers
// Lookup from entries whose hash chain verified, so a memo hit is exactly
// as trustworthy as a fresh computation.
//
// Contract: a Lookup hit MUST be bit-identical to what RunPoint would
// return for the same point (PointResult round-trips float64 values
// exactly, so byte equality of the JSONL wire form is the test). Both
// methods must be safe for concurrent use; they are called from sweep
// worker goroutines. Publish is best-effort — an implementation that
// cannot persist a result simply drops it, it must not fail the sweep.
type Memo interface {
	Lookup(p Point) (PointResult, bool)
	Publish(p Point, r PointResult)
}

// ComputePointScratch is RunPoint behind a memo, drawing per-point working
// state from sc, a borrowed scratch (nil computes on a new one): a Lookup
// hit is returned as-is, a miss is computed and offered back via Publish.
// A nil memo degenerates to RunPoint exactly. Sweep funnels every point
// through this, so "consult the cache before computing, publish after"
// holds everywhere a point can be executed. The returned result is never
// scratch-owned — see Scratch — so it may be retained, batched and
// published freely.
func (e *Expansion) ComputePointScratch(sc *Scratch, p Point, m Memo) PointResult {
	if m != nil {
		if r, ok := m.Lookup(p); ok {
			return r
		}
	}
	r := e.runPoint(p, sc)
	if m != nil {
		m.Publish(p, r)
	}
	return r
}
