// Package sim provides a from-scratch discrete-event simulation kernel used
// to execute parallel-task-graph schedules on multi-cluster platforms.
//
// The kernel is deliberately small: a virtual clock, a time-ordered event
// queue, and activities (computations and network flows) whose remaining
// work is advanced between events. Network flows share link bandwidth using
// a bounded max-min fair-share model (progressive filling), which is the
// same class of flow-level model SimGrid uses for LAN contention. This is
// the substrate on which the paper's evaluation runs.
//
// Concurrency: a Link is immutable after NewLink and may be shared by any
// number of simulations; Engine, FlowNet and Flow form one single-threaded
// simulation instance and must be confined to one goroutine. Independent
// simulations over the same links parallelize freely — this is what lets
// the service and experiment layers replay schedules concurrently on
// shared platforms.
package sim

import (
	"fmt"
	"math"
)

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now float64
	// queue is a binary min-heap on (time, seq). Sequence numbers are
	// unique, so the order events pop in is fixed by their keys alone,
	// whatever the heap's internal layout.
	queue []*Event
	seq   int64 // tie-breaker for deterministic ordering

	// Event arena: At hands events out of fixed-size blocks and Reset
	// recycles the blocks wholesale, so replaying many schedules on one
	// engine allocates events only while the high-water mark grows.
	evBlocks [][]Event
	evBlock  int // block the next event comes from
	evUsed   int // events used within that block
}

// NewEngine returns an empty simulator positioned at virtual time 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Reset returns the engine to virtual time 0 with an empty queue and a
// recycled event arena, keeping allocated capacity for the next
// simulation. Events handed out before the Reset are invalidated: callers
// must not retain or Cancel them across a Reset.
func (e *Engine) Reset() {
	for i := range e.queue {
		e.queue[i] = nil
	}
	e.queue = e.queue[:0]
	e.now = 0
	e.seq = 0
	e.evBlock = 0
	e.evUsed = 0
}

// eventBlockSize is the arena block granularity; a Fig. 3-sized run
// schedules a few thousand events, so blocks stay few.
const eventBlockSize = 512

// newEvent returns a zeroed event from the arena.
func (e *Engine) newEvent() *Event {
	if e.evBlock == len(e.evBlocks) {
		e.evBlocks = append(e.evBlocks, make([]Event, eventBlockSize))
	}
	blk := e.evBlocks[e.evBlock]
	ev := &blk[e.evUsed]
	e.evUsed++
	if e.evUsed == len(blk) {
		e.evBlock++
		e.evUsed = 0
	}
	*ev = Event{}
	return ev
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is an error that panics: it always indicates a simulator bug, not a user
// input problem.
func (e *Engine) At(t float64, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling an event at %g before now %g", t, e.now))
	}
	if math.IsNaN(t) {
		panic("sim: scheduling an event at NaN")
	}
	ev := e.newEvent()
	ev.time, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	e.queue = append(e.queue, ev)
	e.up(len(e.queue)-1, ev)
	return ev
}

// After schedules fn to run delay seconds from now.
func (e *Engine) After(delay float64, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative event delay %g", delay))
	}
	return e.At(e.now+delay, fn)
}

// Reschedule moves the pending event ev to absolute virtual time t, in
// place: ev takes the next sequence number and its heap position is fixed,
// so it fires in exactly the order that cancelling it and scheduling a new
// event at t would give — including ties at equal times, which it now
// loses to every event scheduled before this call — while no cancelled
// event is left behind in the queue or the arena. ev must still be
// pending: rescheduling an event that has fired (its own callback window
// included: Run removes an event before invoking it) or was cancelled
// panics, as does a time in the past or NaN.
func (e *Engine) Reschedule(ev *Event, t float64) {
	if ev.cancelled || ev.index < 0 {
		panic("sim: rescheduling an event that is no longer pending")
	}
	if t < e.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: rescheduling an event to %g at now %g", t, e.now))
	}
	ev.time, ev.seq = t, e.seq
	e.seq++
	if i := ev.index; i > 0 && ev.before(e.queue[(i-1)/2]) {
		e.up(i, ev)
	} else {
		e.down(i, ev)
	}
}

// Run processes events until the queue is empty. It returns the final
// virtual time.
func (e *Engine) Run() float64 {
	for len(e.queue) > 0 {
		ev := e.pop()
		if ev.cancelled {
			continue
		}
		if ev.time < e.now {
			panic(fmt.Sprintf("sim: time went backwards: %g -> %g", e.now, ev.time))
		}
		e.now = ev.time
		if ev.fn != nil {
			ev.fn()
		}
	}
	return e.now
}

// Event is a scheduled callback. It can be cancelled before it fires.
type Event struct {
	time      float64
	seq       int64
	fn        func()
	cancelled bool
	index     int // position in the queue; -1 once popped
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (ev *Event) Cancel() { ev.cancelled = true }

// before reports whether ev fires before o: earlier time, then lower
// sequence number.
func (ev *Event) before(o *Event) bool {
	return ev.time < o.time || (ev.time == o.time && ev.seq < o.seq)
}

// up moves the hole at queue position i towards the root until ev fits,
// then drops ev into it.
func (e *Engine) up(i int, ev *Event) {
	q := e.queue
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// down moves the hole at queue position i towards the leaves until ev fits,
// then drops ev into it.
func (e *Engine) down(i int, ev *Event) {
	q := e.queue
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(ev) {
			break
		}
		q[i] = q[c]
		q[i].index = i
		i = c
	}
	q[i] = ev
	ev.index = i
}

// pop removes and returns the first event of the queue.
func (e *Engine) pop() *Event {
	q := e.queue
	ev, last := q[0], q[len(q)-1]
	q[len(q)-1] = nil
	e.queue = q[:len(q)-1]
	if len(e.queue) > 0 {
		e.down(0, last)
	}
	ev.index = -1
	return ev
}
