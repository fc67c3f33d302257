package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Link is a network resource with a fixed capacity in bytes per second and a
// constant latency in seconds. Links are shared by flows under bounded
// max-min fairness.
type Link struct {
	Name     string
	Capacity float64 // bytes/s
	Latency  float64 // seconds
}

// NewLink returns a link with the given capacity (bytes/s) and latency (s).
func NewLink(name string, capacity, latency float64) *Link {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: link %q capacity must be positive, got %g", name, capacity))
	}
	if latency < 0 {
		panic(fmt.Sprintf("sim: link %q latency must be non-negative, got %g", name, latency))
	}
	return &Link{Name: name, Capacity: capacity, Latency: latency}
}

// Flow is a data transfer over a route of links. Flows are created through
// FlowNet.Start and must not be constructed directly.
type Flow struct {
	Label string
	route []*Link
	class int // route class within the owning FlowNet's solver
	// remaining is the bytes to transfer; once the flow is active its
	// class's rem vector holds what is left and this field is stale.
	remaining float64
	rate      float64 // bytes/s as FairShareRates solved it; FlowNet keeps rates per class
	stamp     uint64  // position in the net's activation order, set as the flow becomes active
	done      bool
	onDone    func(endTime float64)
	// next chains the flows that share one start event, in Start order.
	next *Flow
	// startFn is the latency-elapsed callback of the start event this flow
	// heads, created once per arena slot and reused across recycles (it
	// captures only the slot's stable address and its owning net).
	startFn func()
}

// NewTestFlow returns an unstarted flow over route with the given remaining
// bytes. It is not registered with any FlowNet: it exists so tests and
// benchmarks outside the package can exercise FairShareRates directly.
func NewTestFlow(route []*Link, remaining float64) *Flow {
	return &Flow{route: route, remaining: remaining}
}

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done }

// FlowNet manages the set of active flows on a network and drives their
// progress on an Engine using a bounded max-min fair-share bandwidth model:
// whenever the set of active flows changes, all rates are recomputed by
// progressive filling over the live route classes and the single pending
// completion event is re-keyed to the next completion.
//
// The active flows are kept by route class (flowSet), each class ordered by
// remaining bytes, so only advance visits every flow; a reshare reads each
// live class's head and a completion retires each class's zero prefix.
// What the order cannot say — which of several flows came first — the
// activation stamps do.
//
// Tie rule: the next completion is the flow with the smallest
// (remaining/rate, stamp) over all active flows, and flows retired by one
// completion event finish in stamp order. That is what a scan of all
// active flows in activation order with a strict "earlier than the best so
// far" test selects, and the order such a scan retires in — the net this
// one replaced, kept as oracleNet in the tests; it fixes the order of the
// onDone callbacks and so of every event they schedule.
//
// Sharing rule: Start lets a flow join the previous Start's start event
// when that event is still pending, falls at the same instant bit for bit,
// and the engine has handed out no sequence number since. Events of their
// own would carry consecutive sequence numbers at one time, so nothing
// could fire between them and no time would pass: the rates a reshare
// between them computes are never applied by an advance (dt is 0), and of
// the completion event's successive re-keyings only the last (time, seq)
// survives. One activation pass with one reshare at its end therefore
// leaves every surviving event in the same relative order. A flow with
// nothing to transfer is the exception that needs care: it finishes in its
// turn, its callback may schedule events, and those must keep following
// the re-keying its predecessors in the group would have caused — so the
// group reshares before finishing it.
type FlowNet struct {
	eng        *Engine
	lastUpdate float64
	stamp      uint64 // activation stamps handed out since the last Reset
	// completion is the one pending flow-completion event, nil when no
	// flow is active; completionFn is its callback, bound once.
	completion   *Event
	completionFn func()
	// nextDone is the flow the pending completion event was scheduled
	// for. It is force-retired when the event fires: floating-point
	// residue (remaining ≈ rate·ulp(now)) could otherwise leave a flow
	// whose completion time underflows against the clock, stalling the
	// simulation in a zero-dt event loop.
	nextDone *Flow
	// group is the start event of the most recent Start, groupTail the
	// last flow chained to it and groupSeq the engine's sequence counter
	// as that Start left it.
	group     *Event
	groupTail *Flow
	groupSeq  int64
	// solver holds the run's link and route-class registries and the
	// scratch state of the fair-share computation, reused across reshares.
	// sets[c] holds the active flows of the solver's class c; it grows
	// with the largest class count of any run and is emptied, capacity
	// kept, by Reset.
	solver fairShareSolver
	sets   []flowSet

	// Flow arena: Start hands flows out of fixed-size blocks and Reset
	// recycles them wholesale, so replaying many schedules on one net
	// allocates flows only while the high-water mark grows.
	flBlocks [][]Flow
	flBlock  int
	flUsed   int

	// finished is onCompletion's scratch for the flows retired by one
	// completion event (events run sequentially, so it is never nested).
	finished []*Flow
}

// flowSet is the active flows of one route class, as many as the class
// counts, as parallel vectors: flows[i] has rem[i] bytes left as of the
// net's last advance. Invariant: rem is non-decreasing. Inserting at the
// upper bound, subtracting one amount from every element and snapping small
// values to 0 all keep it; nothing else writes rem except a completion's
// force-retired target, which moves to the front as 0.
type flowSet struct {
	rem   []float64
	flows []*Flow
}

// NewFlowNet returns a flow manager bound to eng.
func NewFlowNet(eng *Engine) *FlowNet {
	n := &FlowNet{eng: eng}
	n.completionFn = n.onCompletion
	return n
}

// Reset detaches all flows and returns the net to its initial state,
// keeping the flow arena and the solver's buffers for reuse but emptying
// the link and route-class registries: they are keyed by *Link, and a net
// that outlives one simulation is handed different platforms — often a
// fresh copy of the same one — so a registry kept across runs would grow
// with, and pin, every platform the net has ever seen. Re-registering a
// platform's few links and routes per run is noise next to the run's
// solves. The flow sets, indexed by class, are emptied with it and keep
// their capacity. The engine must be Reset alongside; flows handed out
// before the Reset are invalidated.
func (n *FlowNet) Reset() {
	for i := range n.sets {
		set := &n.sets[i]
		clear(set.flows) // a run cut short leaves flows behind
		set.rem, set.flows = set.rem[:0], set.flows[:0]
	}
	n.lastUpdate = 0
	n.stamp = 0
	n.completion = nil
	n.nextDone = nil
	n.group, n.groupTail = nil, nil
	n.flBlock = 0
	n.flUsed = 0
	n.solver.reset()
}

// RegisteredLinks returns the number of distinct links the flows started
// since the last Reset have crossed.
func (n *FlowNet) RegisteredLinks() int { return len(n.solver.links) }

// flowBlockSize is the arena block granularity.
const flowBlockSize = 256

// newFlow returns a zeroed flow from the arena, preserving the recycled
// slot's start callback.
func (n *FlowNet) newFlow() *Flow {
	if n.flBlock == len(n.flBlocks) {
		n.flBlocks = append(n.flBlocks, make([]Flow, flowBlockSize))
	}
	blk := n.flBlocks[n.flBlock]
	f := &blk[n.flUsed]
	n.flUsed++
	if n.flUsed == len(blk) {
		n.flBlock++
		n.flUsed = 0
	}
	*f = Flow{startFn: f.startFn}
	return f
}

// Start initiates a transfer of the given number of bytes along route. The
// flow first waits for the route latency (the sum of link latencies), then
// transfers at its fair-share rate. onDone, if non-nil, fires at completion
// with the completion time. A transfer of zero bytes completes after the
// route latency alone. An empty route models a purely local exchange and
// completes immediately: no network or engine involvement at all, so the
// flow is finished — and onDone has fired — before Start returns.
func (n *FlowNet) Start(label string, route []*Link, bytes float64, onDone func(endTime float64)) *Flow {
	// Not "bytes < 0", which NaN passes: the class vectors are ordered.
	if !(bytes >= 0) || math.IsInf(bytes, 1) {
		panic(fmt.Sprintf("sim: flow %q with size %g, want a finite non-negative one", label, bytes))
	}
	f := n.newFlow()
	f.Label, f.route, f.remaining, f.onDone = label, route, bytes, onDone
	if len(route) == 0 {
		n.finish(f)
		return f
	}
	f.class = n.solver.classify(route)
	if f.class == len(n.sets) {
		n.sets = append(n.sets, flowSet{})
	}
	lat := 0.0
	for _, l := range route {
		lat += l.Latency
	}
	// The sharing rule (see FlowNet). index < 0 marks an event that fired.
	if ev := n.group; ev != nil && n.eng.seq == n.groupSeq && ev.index >= 0 && ev.time == n.eng.now+lat {
		n.groupTail.next = f
	} else {
		if f.startFn == nil {
			f.startFn = func() { n.flowsStarted(f) }
		}
		n.group = n.eng.After(lat, label, f.startFn)
	}
	n.groupTail, n.groupSeq = f, n.eng.seq
	return f
}

// flowsStarted runs when the route latency of the flows chained from f has
// elapsed: they join the active set in Start order and bandwidth is
// reshared once for all of them, or — see the sharing rule — once before
// each flow that has nothing to transfer and finishes on the spot.
func (n *FlowNet) flowsStarted(f *Flow) {
	joined := false
	for ; f != nil; f = f.next {
		if f.remaining <= 0 {
			if joined {
				n.reshare()
				joined = false
			}
			n.finish(f)
			continue
		}
		n.advance() // the clock stands still from here on: a no-op after the first
		n.stamp++
		f.stamp = n.stamp
		set := &n.sets[f.class]
		// After the last element not larger than f.
		i := sort.Search(len(set.rem), func(i int) bool { return set.rem[i] > f.remaining })
		set.rem = slices.Insert(set.rem, i, f.remaining)
		set.flows = slices.Insert(set.flows, i, f)
		n.solver.enter(f.class)
		joined = true
	}
	if joined {
		n.reshare()
	}
}

// ActiveFlows returns the number of flows currently transferring bytes.
func (n *FlowNet) ActiveFlows() int {
	total := 0
	for _, c := range n.solver.live {
		total += n.solver.classes[c].count
	}
	return total
}

// advance progresses every active flow's remaining bytes to the current
// simulation time using the rates computed at the last reshare. Every
// member of a class subtracts the same amount, and rounding and the snap
// are monotone, so each class stays ordered.
func (n *FlowNet) advance() {
	now := n.eng.Now()
	if dt := now - n.lastUpdate; dt > 0 {
		for _, c := range n.solver.live {
			// The conversion keeps the product from fusing into the
			// subtraction where the architecture has a multiply-add.
			d := float64(n.solver.classes[c].rate * dt)
			rem := n.sets[c].rem
			for i, r := range rem {
				r -= d
				// Snap sub-microbyte residue to zero: real transfers are
				// megabytes, anything this small is floating-point noise.
				if r < 1e-6 {
					r = 0
				}
				rem[i] = r
			}
		}
	}
	n.lastUpdate = now
}

// reshare recomputes all fair-share rates and moves the completion event
// to the next flow completion. Must be called with remaining amounts
// already advanced. With no active flow left there is nothing to schedule:
// only onCompletion can empty the active set, and its event has fired.
func (n *FlowNet) reshare() {
	s := &n.solver
	if len(s.live) == 0 {
		return
	}
	s.solve()

	// The earliest completion, by the tie rule (see FlowNet). A class's
	// candidates are its head and the few elements after it whose own
	// quotient rounds to the head's.
	next := math.Inf(1)
	var first *Flow
	for _, c := range s.live {
		rate, set := s.classes[c].rate, &n.sets[c]
		if rate <= 0 {
			continue
		}
		t, f := set.rem[0]/rate, set.flows[0]
		for i := 1; i < len(set.rem) && set.rem[i]/rate == t; i++ {
			if set.flows[i].stamp < f.stamp {
				f = set.flows[i]
			}
		}
		if t < next || (t == next && first != nil && f.stamp < first.stamp) {
			next, first = t, f
		}
	}
	if first == nil {
		panic("sim: active flows with no progress possible")
	}
	n.nextDone = first
	if n.completion == nil {
		n.completion = n.eng.After(next, "flow-completion", n.completionFn)
	} else {
		n.eng.Reschedule(n.completion, n.eng.Now()+next)
	}
}

// onCompletion retires every flow that has finished and reshapes the rest.
// The flow the event was scheduled for is always retired, guaranteeing
// progress even when floating-point residue keeps its remaining amount
// marginally positive.
func (n *FlowNet) onCompletion() {
	// The event has fired and left the queue: it can no longer be re-keyed,
	// so reshare below must schedule a new one.
	n.completion = nil
	target := n.nextDone
	n.nextDone = nil
	n.advance()
	s := &n.solver
	// The target goes to the front of its class as 0. It sits among the
	// class's leading ties, whose residue, if any, stays ahead of the rest.
	set := &n.sets[target.class]
	i := slices.Index(set.flows, target)
	copy(set.rem[1:i+1], set.rem[:i])
	copy(set.flows[1:i+1], set.flows[:i])
	set.rem[0], set.flows[0] = 0, target

	finished := n.finished[:0]
	for _, c := range s.live {
		set = &n.sets[c]
		k := 0
		for k < len(set.rem) && set.rem[k] <= 0 {
			k++
		}
		if k == 0 {
			continue
		}
		finished = append(finished, set.flows[:k]...)
		set.rem = slices.Delete(set.rem, 0, k)
		set.flows = slices.Delete(set.flows, 0, k) // clears the vacated tail
	}
	// Into activation order; they are few.
	slices.SortFunc(finished, func(a, b *Flow) int { return cmp.Compare(a.stamp, b.stamp) })
	for _, f := range finished {
		s.leave(f.class)
	}
	n.reshare()
	for _, f := range finished {
		n.finish(f)
	}
	clear(finished)
	n.finished = finished[:0]
}

func (n *FlowNet) finish(f *Flow) {
	if f.done {
		return
	}
	f.done = true
	if f.onDone != nil {
		f.onDone(n.eng.Now())
	}
}

// FairShareRates computes bounded max-min fair rates for the given flows by
// progressive filling and stores them in each flow's rate field. It is
// exported (within the package tree) for direct property testing; the
// simulation's own reshare path reuses a per-FlowNet solver instead, so
// link and route registration happens once per flow rather than once per
// call.
func FairShareRates(flows []*Flow) {
	total := 0
	for _, f := range flows {
		total += len(f.route)
	}
	// Sized for the worst case, every flow on a route of its own.
	s := fairShareSolver{
		classOf:  make(map[uint64]int, len(flows)),
		classes:  make([]routeClass, 0, len(flows)),
		routeIDs: make([]int, 0, total),
		live:     make([]int, 0, len(flows)),
		unsat:    make([]int, 0, len(flows)),
	}
	for _, f := range flows {
		f.class = s.classify(f.route)
		s.enter(f.class)
	}
	s.solve()
	for _, f := range flows {
		f.rate = s.classes[f.class].rate
	}
}

// fairShareSolver is the index-based progressive-filling engine behind
// FairShareRates and FlowNet. Each distinct link is assigned a dense
// integer ID at registration; all per-round state (remaining capacity,
// unsaturated-flow counts, the unsaturated set itself) lives in slices
// indexed by those IDs, so the solve loop performs no map iteration and no
// sorting.
//
// Route classes: a flow's bounded max-min rate is a function of its route
// alone, and a platform has few routes (at most K² of ≤ 3 links for K
// clusters) whatever the number of flows, so the solver fills over classes
// of flows sharing one route, each with its count of active flows, instead
// of over flows: O(C·R·r + F) per reshare for C live classes, R filling
// rounds and routes of r links, against O(F·R·r) per flow.
//
// Bit-identity with per-flow filling: inside one round every saturated
// flow applies the same operation — subtract the round's share, clamp at
// 0 — to the remaining capacity of each link on its route. Identical
// operations commute, so a link's capacity after the round depends only on
// how many saturated flows crossed it, not on the order they were visited
// in, and a class of k flows is k repetitions of that operation (never one
// subtraction of k·share, which rounds differently). The state the next
// round's bottleneck is chosen from is therefore the same, round by round.
// The one capacity not kept up is that of a link whose last unsaturated
// flow has just been saturated: no later round reads or writes it.
//
// Determinism: the seed implementation broke bottleneck-share ties by
// iterating candidate links in name order. The solver precomputes each
// link's rank in that same name order (ties by registration order) and
// breaks share ties by rank, selecting the identical bottleneck without
// re-sorting every round.
type fairShareSolver struct {
	ids    map[*Link]int // link → dense ID
	links  []*Link       // dense ID → link
	rank   []int         // dense ID → position in name order
	order  []int         // ensureRanks' scratch
	rankOK bool

	// Route-class registry. A class's route is a run of dense link IDs in
	// the one flat routeIDs slice; classes are found by route hash, with
	// classes of equal hash chained through routeClass.next. live lists the
	// classes with active flows, in no meaningful order.
	classOf  map[uint64]int // route hash → most recent class with it
	classes  []routeClass
	routeIDs []int
	live     []int

	// Scratch reused across solves, indexed by dense ID. stamp marks the
	// IDs touched by the current solve (== epoch), so nothing needs
	// clearing between calls.
	epoch   uint64
	stamp   []uint64
	capLeft []float64
	nUnsat  []int
	used    []int // IDs touched by the current solve
	unsat   []int // live classes not yet saturated
	sat     []int // classes saturated by the current round
}

// routeClass is the set of flows that share one route.
type routeClass struct {
	lo, hi int     // the route is routeIDs[lo:hi]
	next   int     // next class with the same route hash, -1 at the end
	count  int     // active flows
	pos    int     // index in live while count > 0
	rate   float64 // every member's rate, as of the last solve
}

// reset empties the link and class registries, keeping every buffer.
func (s *fairShareSolver) reset() {
	clear(s.ids)
	clear(s.links)
	s.links = s.links[:0]
	s.stamp = s.stamp[:0]
	s.capLeft = s.capLeft[:0]
	s.nUnsat = s.nUnsat[:0]
	s.rankOK = false
	clear(s.classOf)
	s.classes = s.classes[:0]
	s.routeIDs = s.routeIDs[:0]
	s.live = s.live[:0]
}

// linkID returns l's dense ID, registering l on first sight.
func (s *fairShareSolver) linkID(l *Link) int {
	id, ok := s.ids[l]
	if !ok {
		if s.ids == nil {
			s.ids = make(map[*Link]int)
		}
		id = len(s.links)
		s.ids[l] = id
		s.links = append(s.links, l)
		s.stamp = append(s.stamp, 0)
		s.capLeft = append(s.capLeft, 0)
		s.nUnsat = append(s.nUnsat, 0)
		s.rankOK = false
	}
	return id
}

// classify returns the class of route, registering its links and the class
// itself on first sight.
func (s *fairShareSolver) classify(route []*Link) int {
	// Append the route's IDs where a new class would keep them; a known
	// route gives the space back.
	lo := len(s.routeIDs)
	h := uint64(len(route))
	for _, l := range route {
		id := s.linkID(l)
		s.routeIDs = append(s.routeIDs, id)
		h = (h ^ uint64(id)) * 1099511628211 // FNV-1a's prime, over IDs
	}
	ids := s.routeIDs[lo:]
	head, ok := s.classOf[h]
	if !ok {
		head = -1
	}
	for c := head; c >= 0; c = s.classes[c].next {
		if cl := &s.classes[c]; slices.Equal(s.routeIDs[cl.lo:cl.hi], ids) {
			s.routeIDs = s.routeIDs[:lo]
			return c
		}
	}
	if s.classOf == nil {
		s.classOf = make(map[uint64]int)
	}
	c := len(s.classes)
	s.classes = append(s.classes, routeClass{lo: lo, hi: len(s.routeIDs), next: head})
	s.classOf[h] = c
	return c
}

// enter counts one more active flow in class c.
func (s *fairShareSolver) enter(c int) {
	cl := &s.classes[c]
	if cl.count == 0 {
		cl.pos = len(s.live)
		s.live = append(s.live, c)
	}
	cl.count++
}

// leave counts one active flow less in class c.
func (s *fairShareSolver) leave(c int) {
	cl := &s.classes[c]
	cl.count--
	if cl.count == 0 {
		last := s.live[len(s.live)-1]
		s.live[cl.pos] = last
		s.classes[last].pos = cl.pos
		s.live = s.live[:len(s.live)-1]
	}
}

// ensureRanks recomputes the name-order ranks after new registrations.
func (s *fairShareSolver) ensureRanks() {
	if s.rankOK {
		return
	}
	order := slices.Grow(s.order[:0], len(s.links))
	for i := range s.links {
		order = append(order, i)
	}
	// Insertion sort by (name, ID): links are few and registrations rare.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if s.links[a].Name < s.links[b].Name ||
				(s.links[a].Name == s.links[b].Name && a < b) {
				break
			}
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	s.rank = append(s.rank[:0], order...)
	for pos, id := range order {
		s.rank[id] = pos
	}
	s.order = order
	s.rankOK = true
}

// solve computes the bounded max-min fair rate of every live class by
// progressive filling over classes with multiplicities.
func (s *fairShareSolver) solve() {
	s.ensureRanks()
	s.epoch++
	used := s.used[:0]
	unsat := append(s.unsat[:0], s.live...)
	for _, c := range unsat {
		cl := &s.classes[c]
		cl.rate = 0
		for _, id := range s.routeIDs[cl.lo:cl.hi] {
			if s.stamp[id] != s.epoch {
				s.stamp[id] = s.epoch
				s.capLeft[id] = s.links[id].Capacity
				s.nUnsat[id] = 0
				used = append(used, id)
			}
			s.nUnsat[id] += cl.count
		}
	}

	for len(unsat) > 0 {
		// Find the bottleneck link: smallest fair share capLeft/nUnsat,
		// ties broken by name-order rank.
		bott := -1
		share := math.Inf(1)
		for _, id := range used {
			if s.nUnsat[id] == 0 {
				continue
			}
			sh := s.capLeft[id] / float64(s.nUnsat[id])
			if sh < share || (sh == share && bott >= 0 && s.rank[id] < s.rank[bott]) {
				share = sh
				bott = id
			}
		}
		if bott < 0 {
			// No remaining link constrains the unsaturated flows; this can
			// only happen for flows with empty routes, which Start handles
			// separately, so treat as a bug.
			panic("sim: fair-share solver found unconstrained flows")
		}
		if share < 0 {
			share = 0
		}
		// Saturate every unsaturated class crossing the bottleneck; compact
		// the rest in place.
		kept, sat := unsat[:0], s.sat[:0]
		for _, c := range unsat {
			cl := &s.classes[c]
			route := s.routeIDs[cl.lo:cl.hi]
			if !slices.Contains(route, bott) {
				kept = append(kept, c)
				continue
			}
			cl.rate = share
			sat = append(sat, c)
			for _, id := range route {
				s.nUnsat[id] -= cl.count
			}
		}
		// Take the saturated flows' share out of the links they cross: one
		// subtract-and-clamp per member flow (a link that reads 0 stays at
		// 0 under further ones). A link left without unsaturated flows is
		// never read again — no later round can pick it, or touch it —
		// so it is skipped; after the last round that is every link.
		for _, c := range sat {
			cl := &s.classes[c]
			for _, id := range s.routeIDs[cl.lo:cl.hi] {
				if s.nUnsat[id] == 0 {
					continue
				}
				left := s.capLeft[id]
				for k := cl.count; k > 0 && left != 0; k-- {
					left -= share
					if left < 0 {
						left = 0
					}
				}
				s.capLeft[id] = left
			}
		}
		unsat, s.sat = kept, sat
	}
	s.used = used
	s.unsat = unsat
}
