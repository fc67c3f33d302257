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
	"container/heap"
	"fmt"
	"math"
)

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now     float64
	queue   eventQueue
	seq     int64 // tie-breaker for deterministic ordering
	stopped bool

	// Event arena: At hands events out of fixed-size blocks and Reset
	// recycles the blocks wholesale, so replaying many schedules on one
	// engine allocates events only while the high-water mark grows.
	evBlocks [][]Event
	evBlock  int // block the next event comes from
	evUsed   int // events used within that block

	// Hooks, optional. Invoked synchronously inside Run.
	OnEvent func(t float64, label string)
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
	e.stopped = false
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

// Stop aborts the simulation after the current event callback returns.
func (e *Engine) Stop() { e.stopped = true }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is an error that panics: it always indicates a simulator bug, not a user
// input problem.
func (e *Engine) At(t float64, label string, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event %q at %g before now %g", label, t, e.now))
	}
	if math.IsNaN(t) {
		panic(fmt.Sprintf("sim: scheduling event %q at NaN", label))
	}
	ev := e.newEvent()
	ev.time, ev.seq, ev.label, ev.fn = t, e.seq, label, fn
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules fn to run delay seconds from now.
func (e *Engine) After(delay float64, label string, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %g for event %q", delay, label))
	}
	return e.At(e.now+delay, label, fn)
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
		panic(fmt.Sprintf("sim: rescheduling event %q that is no longer pending", ev.label))
	}
	if t < e.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: rescheduling event %q to %g at now %g", ev.label, t, e.now))
	}
	ev.time, ev.seq = t, e.seq
	e.seq++
	heap.Fix(&e.queue, ev.index)
}

// Run processes events until the queue is empty or Stop is called. It
// returns the final virtual time.
func (e *Engine) Run() float64 {
	for e.queue.Len() > 0 && !e.stopped {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.cancelled {
			continue
		}
		if ev.time < e.now {
			panic(fmt.Sprintf("sim: time went backwards: %g -> %g (%s)", e.now, ev.time, ev.label))
		}
		e.now = ev.time
		if e.OnEvent != nil {
			e.OnEvent(e.now, ev.label)
		}
		if ev.fn != nil {
			ev.fn()
		}
	}
	return e.now
}

// Pending reports the number of not-yet-cancelled events in the queue.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.queue {
		if !ev.cancelled {
			n++
		}
	}
	return n
}

// Event is a scheduled callback. It can be cancelled before it fires.
type Event struct {
	time      float64
	seq       int64
	label     string
	fn        func()
	cancelled bool
	index     int // position in the queue; -1 once popped
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (ev *Event) Cancel() { ev.cancelled = true }

// eventQueue is a min-heap ordered by (time, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	ev.index = -1
	return ev
}
