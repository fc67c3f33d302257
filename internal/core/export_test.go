package core

// TraceCounters returns the counters of the scratch's allocation traces:
// steps grown, steps replayed and calls answered with an earlier
// allocation (alloc.Traces).
func (sc *Scratch) TraceCounters() (grown, replayed, repeated int) {
	return sc.traces.Grown, sc.traces.Replayed, sc.traces.Repeated
}
