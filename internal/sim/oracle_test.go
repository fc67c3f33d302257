package sim

// Differential oracles for the route-class fair-share solver, the re-keyed
// completion event and Engine.Reschedule. oracleSolver is the per-flow
// progressive-filling solver this package shipped before classes, kept
// verbatim (register, ensureRanks, solve); oracleNet is the FlowNet that
// drove it, with one cancelled event and one new event per reshare. Every
// comparison below is on math.Float64bits, not on a tolerance.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

type oracleSolver struct {
	ids    map[*Link]int // link → dense ID
	links  []*Link       // dense ID → link
	rank   []int         // dense ID → position in name order
	rankOK bool

	epoch   uint64
	stamp   []uint64
	capLeft []float64
	nUnsat  []int
	used    []int // IDs touched by the current solve
	unsat   []int // flow indices not yet saturated, in slice order
}

// register assigns dense IDs to the links of route, appending them to dst.
func (s *oracleSolver) register(route []*Link, dst []int) []int {
	for _, l := range route {
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
		dst = append(dst, id)
	}
	return dst
}

// ensureRanks recomputes the name-order ranks after new registrations.
func (s *oracleSolver) ensureRanks() {
	if s.rankOK {
		return
	}
	order := make([]int, len(s.links))
	for i := range order {
		order[i] = i
	}
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
	s.rank = make([]int, len(s.links))
	for pos, id := range order {
		s.rank[id] = pos
	}
	s.rankOK = true
}

// solve computes bounded max-min fair rates for flows by progressive
// filling, flow by flow. routes[i] gives flow i's route as dense IDs.
func (s *oracleSolver) solve(flows []*Flow, routes [][]int) {
	if len(flows) == 0 {
		return
	}
	s.ensureRanks()
	s.epoch++
	used := s.used[:0]
	for i, f := range flows {
		f.rate = 0
		for _, id := range routes[i] {
			if s.stamp[id] != s.epoch {
				s.stamp[id] = s.epoch
				s.capLeft[id] = s.links[id].Capacity
				s.nUnsat[id] = 0
				used = append(used, id)
			}
			s.nUnsat[id]++
		}
	}
	unsat := s.unsat[:0]
	for i := range flows {
		unsat = append(unsat, i)
	}

	for len(unsat) > 0 {
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
			panic("sim: fair-share solver found unconstrained flows")
		}
		if share < 0 {
			share = 0
		}
		kept := unsat[:0]
		for _, fi := range unsat {
			crosses := false
			for _, id := range routes[fi] {
				if id == bott {
					crosses = true
					break
				}
			}
			if !crosses {
				kept = append(kept, fi)
				continue
			}
			flows[fi].rate = share
			for _, id := range routes[fi] {
				s.capLeft[id] -= share
				if s.capLeft[id] < 0 {
					s.capLeft[id] = 0
				}
				s.nUnsat[id]--
			}
		}
		unsat = kept
	}
	s.used = used
	s.unsat = unsat
}

// oracleSolve is the pre-class FairShareRates: per-flow progressive
// filling over a one-shot registry, rates stored in each flow's rate field.
func oracleSolve(flows []*Flow) {
	var s oracleSolver
	routes := make([][]int, len(flows))
	for i, f := range flows {
		routes[i] = s.register(f.route, nil)
	}
	s.solve(flows, routes)
}

// population is one fair-share instance: routes over links, by index.
type population struct {
	links  []*Link
	routes [][]int
}

// flows materializes the population as fresh unstarted flows.
func (p population) flows() []*Flow {
	fs := make([]*Flow, len(p.routes))
	for i, r := range p.routes {
		route := make([]*Link, len(r))
		for j, l := range r {
			route[j] = p.links[l]
		}
		fs[i] = &Flow{route: route, remaining: 1}
	}
	return fs
}

// requireSameRates solves p with the class solver and with the oracle and
// requires every rate to agree bit for bit.
func requireSameRates(t testing.TB, what string, p population) {
	t.Helper()
	got, want := p.flows(), p.flows()
	FairShareRates(got)
	oracleSolve(want)
	for i := range got {
		if math.Float64bits(got[i].rate) != math.Float64bits(want[i].rate) {
			t.Fatalf("%s: flow %d over %v: rate %v (%#x), per-flow oracle %v (%#x)", what, i, p.routes[i],
				got[i].rate, math.Float64bits(got[i].rate), want[i].rate, math.Float64bits(want[i].rate))
		}
	}
}

// randomLinks draws n links; a few share a name, to exercise rank ties.
func randomLinks(r *rand.Rand, n int) []*Link {
	links := make([]*Link, n)
	for i := range links {
		links[i] = NewLink(fmt.Sprintf("l%d", i%9), 1e8*(0.1+10*r.Float64()), 1e-4)
	}
	return links
}

// clampingCount returns a flow count k ≥ 3 for which k subtractions of
// capacity/k from capacity overshoot below zero, so that the solver's
// capLeft < 0 → 0 clamp fires on a link all of whose k flows saturate.
func clampingCount(capacity float64) int {
	for k := 3; k < 400; k++ {
		left, share := capacity, capacity/float64(k)
		for i := 0; i < k; i++ {
			left -= share
		}
		if left < 0 {
			return k
		}
	}
	return 0
}

// shapedPopulation draws one instance of the named shape.
func shapedPopulation(shape string, r *rand.Rand) population {
	var p population
	repeat := func(route []int, k int) {
		for i := 0; i < k; i++ {
			p.routes = append(p.routes, route)
		}
	}
	randomRoute := func(maxLen int) []int {
		route := make([]int, 1+r.Intn(maxLen))
		for i := range route {
			route[i] = r.Intn(len(p.links))
		}
		return route
	}
	switch shape {
	case "one class":
		p.links = randomLinks(r, 1+r.Intn(4))
		repeat(r.Perm(len(p.links)), 1+r.Intn(300))
	case "all distinct":
		// Every flow on a route of its own: permutations of distinct
		// prefixes of the link set.
		p.links = randomLinks(r, 6)
		seen := map[string]bool{}
		for n := 1 + r.Intn(80); len(p.routes) < n; {
			route := r.Perm(len(p.links))[:1+r.Intn(4)]
			if key := fmt.Sprint(route); !seen[key] {
				seen[key] = true
				p.routes = append(p.routes, route)
			}
		}
	case "repeated link":
		// A route that crosses one link two or three times counts, and
		// drains, that link once per crossing.
		p.links = randomLinks(r, 2+r.Intn(5))
		for c := 1 + r.Intn(6); c > 0; c-- {
			route := randomRoute(3)
			l := route[r.Intn(len(route))]
			route = append(route, l)
			if r.Intn(2) == 0 {
				route = append([]int{l}, route...)
			}
			repeat(route, 1+r.Intn(40))
		}
	case "long routes":
		p.links = randomLinks(r, 4+r.Intn(12))
		for c := 1 + r.Intn(12); c > 0; c-- {
			route := randomRoute(9)
			for len(route) < 4 {
				route = append(route, r.Intn(len(p.links)))
			}
			repeat(route, 1+r.Intn(25))
		}
	case "clamp":
		// Link 0 is shared by exactly the k flows whose k subtractions of
		// capacity/k overshoot; other classes ride along on wider links.
		var k int
		var capacity float64
		for k == 0 {
			capacity = 1e8 * (0.1 + 10*r.Float64())
			k = clampingCount(capacity)
		}
		p.links = append([]*Link{NewLink("clamped", capacity, 0)}, randomLinks(r, 3)...)
		for i := 1; i < len(p.links); i++ {
			p.links[i].Capacity += 20 * capacity
		}
		split := 1 + r.Intn(k-1)
		repeat([]int{0, 1}, split)
		repeat([]int{2, 0}, k-split)
		repeat([]int{1, 2, 3}, 1+r.Intn(30))
	case "zero share":
		// A link without capacity (only constructible inside the package)
		// is the first bottleneck with share 0; the classes that cross it
		// stop at rate 0 and leave the others their links whole.
		p.links = append(randomLinks(r, 3), &Link{Name: "dead", Capacity: 0})
		repeat([]int{3}, 1+r.Intn(5))
		repeat([]int{0, 3, 1}, 1+r.Intn(20))
		repeat([]int{0, 1}, 1+r.Intn(20))
		repeat([]int{2}, r.Intn(10))
	default:
		panic("unknown shape " + shape)
	}
	// Classes are found whatever order their flows come in.
	r.Shuffle(len(p.routes), func(i, j int) { p.routes[i], p.routes[j] = p.routes[j], p.routes[i] })
	return p
}

var populationShapes = []string{"one class", "all distinct", "repeated link", "long routes", "clamp", "zero share"}

// TestClassSolveMatchesPerFlowOracle: 240 seeded populations, 40 of each
// shape, every rate bit-equal to per-flow filling.
func TestClassSolveMatchesPerFlowOracle(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		shape := populationShapes[seed%int64(len(populationShapes))]
		p := shapedPopulation(shape, rand.New(rand.NewSource(7000+seed)))
		requireSameRates(t, fmt.Sprintf("%s, seed %d", shape, seed), p)
	}
}

// populationFromBytes decodes fuzz input: a link count and capacities, then
// classes of (multiplicity, route length, link indices).
func populationFromBytes(data []byte) population {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var p population
	for n := 1 + next()%8; n > 0; n-- {
		// Capacities from 0 (inside the package only) up to 255·2^15, on
		// few mantissa bits and on many.
		capacity := float64(next()) * float64(int(1)<<(next()%16))
		if next()%2 == 1 {
			capacity /= 3
		}
		p.links = append(p.links, &Link{Name: fmt.Sprintf("l%d", next()%4), Capacity: capacity})
	}
	for len(data) > 0 && len(p.routes) < 2000 {
		k := 1 + next()%64
		route := make([]int, 1+next()%6)
		for i := range route {
			route[i] = next() % len(p.links)
		}
		for ; k > 0; k-- {
			p.routes = append(p.routes, route)
		}
	}
	return p
}

// FuzzClassSolveMatchesOracle: byte-driven link capacities, routes and
// multiplicities; the class solver's rates are bit-equal to the oracle's.
func FuzzClassSolveMatchesOracle(f *testing.F) {
	f.Add([]byte{2, 10, 3, 0, 0, 7, 1, 1, 1, 5, 2, 0, 1, 9, 1, 1})
	f.Add([]byte{0, 255, 15, 1, 0, 63, 5, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 0, 0, 0, 0, 9, 9, 1, 1, 200, 2, 0, 2, 4, 0, 1, 3, 1, 2, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := populationFromBytes(data)
		if len(p.routes) == 0 {
			return
		}
		requireSameRates(t, "fuzz", p)
	})
}

// oracleNet is the pre-class FlowNet: per-flow routeIDs, the oracle solver
// over all active flows at every reshare, and a cancelled completion event
// replaced by a new one each time.
type oracleNet struct {
	eng        *Engine
	active     []*Flow
	routes     [][]int // active[i]'s route as dense IDs
	ids        map[*Flow][]int
	lastUpdate float64
	completion *Event
	nextDone   *Flow
	solver     oracleSolver
}

func (n *oracleNet) Start(route []*Link, bytes float64, onDone func(float64)) {
	f := &Flow{route: route, remaining: bytes, onDone: onDone}
	if n.ids == nil {
		n.ids = make(map[*Flow][]int)
	}
	n.ids[f] = n.solver.register(route, nil)
	lat := 0.0
	for _, l := range route {
		lat += l.Latency
	}
	n.eng.After(lat, "flow-start", func() {
		f.started = true
		if f.remaining <= 0 {
			n.finish(f)
			return
		}
		n.advance()
		n.active = append(n.active, f)
		n.reshare()
	})
}

func (n *oracleNet) advance() {
	dt := n.eng.Now() - n.lastUpdate
	if dt > 0 {
		for _, f := range n.active {
			f.remaining -= f.rate * dt
			if f.remaining < 1e-6 {
				f.remaining = 0
			}
		}
	}
	n.lastUpdate = n.eng.Now()
}

func (n *oracleNet) reshare() {
	if n.completion != nil {
		n.completion.Cancel()
		n.completion = nil
		n.nextDone = nil
	}
	if len(n.active) == 0 {
		return
	}
	n.routes = n.routes[:0]
	for _, f := range n.active {
		n.routes = append(n.routes, n.ids[f])
	}
	n.solver.solve(n.active, n.routes)
	next := math.Inf(1)
	var first *Flow
	for _, f := range n.active {
		if f.rate <= 0 {
			continue
		}
		if t := f.remaining / f.rate; t < next {
			next = t
			first = f
		}
	}
	if first == nil {
		panic("sim: active flows with no progress possible")
	}
	n.nextDone = first
	n.completion = n.eng.After(next, "flow-completion", n.onCompletion)
}

func (n *oracleNet) onCompletion() {
	target := n.nextDone
	n.advance()
	if target != nil {
		target.remaining = 0
	}
	kept := n.active[:0]
	var finished []*Flow
	for _, f := range n.active {
		if f.remaining <= 0 {
			finished = append(finished, f)
		} else {
			kept = append(kept, f)
		}
	}
	n.active = kept
	n.reshare()
	for _, f := range finished {
		n.finish(f)
	}
}

func (n *oracleNet) finish(f *Flow) {
	if f.done {
		return
	}
	f.done = true
	f.rate = 0
	if f.onDone != nil {
		f.onDone(n.eng.Now())
	}
}

// completionRecord is one flow completion as a run observed it.
type completionRecord struct {
	flow int
	at   uint64 // Float64bits of the completion time
}

// TestFlowNetMatchesOracleNet drives the same randomly staggered transfers
// — few routes and many flows, as a schedule replay does, plus the
// occasional zero-byte and repeated-link flow — through FlowNet and
// through oracleNet, and requires the same completions in the same order
// at bit-equal times. Each FlowNet serves two scenarios, so the per-run
// registries are exercised across a Reset onto other links.
func TestFlowNetMatchesOracleNet(t *testing.T) {
	type transfer struct {
		at    float64
		route []*Link
		bytes float64
	}
	eng := NewEngine()
	net := NewFlowNet(eng)
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(500 + seed))
		links := make([]*Link, 2+r.Intn(6))
		for i := range links {
			links[i] = NewLink(fmt.Sprintf("l%d", i%5), 1e8*(0.5+4*r.Float64()), 1e-4*float64(r.Intn(4)))
		}
		routes := make([][]*Link, 1+r.Intn(5))
		for i := range routes {
			for n := 1 + r.Intn(4); n > 0; n-- {
				routes[i] = append(routes[i], links[r.Intn(len(links))])
			}
		}
		transfers := make([]transfer, 20+r.Intn(200))
		for i := range transfers {
			transfers[i] = transfer{
				at:    float64(r.Intn(40)) * 0.05, // many simultaneous starts
				route: routes[r.Intn(len(routes))],
				bytes: 1e6 * float64(r.Intn(60)), // some empty
			}
		}

		var got, want []completionRecord
		eng.Reset()
		net.Reset()
		ref := &oracleNet{eng: NewEngine()}
		for i, tr := range transfers {
			i, tr := i, tr
			eng.At(tr.at, "launch", func() {
				net.Start("", tr.route, tr.bytes, func(at float64) {
					got = append(got, completionRecord{i, math.Float64bits(at)})
				})
			})
			ref.eng.At(tr.at, "launch", func() {
				ref.Start(tr.route, tr.bytes, func(at float64) {
					want = append(want, completionRecord{i, math.Float64bits(at)})
				})
			})
		}
		endGot, endWant := eng.Run(), ref.eng.Run()
		if len(got) != len(transfers) || len(want) != len(transfers) {
			t.Fatalf("seed %d: %d and %d completions of %d transfers", seed, len(got), len(want), len(transfers))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: completion %d is flow %d at %v, oracle net has flow %d at %v", seed, i,
					got[i].flow, math.Float64frombits(got[i].at), want[i].flow, math.Float64frombits(want[i].at))
			}
		}
		if endGot != endWant {
			t.Fatalf("seed %d: run ended at %v, oracle net at %v", seed, endGot, endWant)
		}
		if n := net.RegisteredLinks(); n > len(links) {
			t.Fatalf("seed %d: %d links registered, the run had %d", seed, n, len(links))
		}
		if net.ActiveFlows() != 0 || len(net.solver.live) != 0 {
			t.Fatalf("seed %d: %d flows, %d classes still live after the run", seed, net.ActiveFlows(), len(net.solver.live))
		}
		// One completion event re-keyed in place: the run drew a launch, a
		// start and at most one completion event per transfer from the
		// arena, not one more per reshare.
		if drawn := eng.evBlock*eventBlockSize + eng.evUsed; drawn > 3*len(transfers) {
			t.Fatalf("seed %d: %d events drawn for %d transfers", seed, drawn, len(transfers))
		}
	}
}

// TestRescheduleMatchesCancelAndAt runs one random program of events twice:
// once re-keying events in place, once cancelling them and scheduling a
// replacement. Firing order must agree, ties at equal times included —
// times are drawn from a handful of values, and most moves issued from a
// callback land on "now".
func TestRescheduleMatchesCancelAndAt(t *testing.T) {
	const movable, plain = 4, 30
	type move struct {
		m  int     // movable event, -1 for none
		to float64 // absolute when issued at set-up, a delay when issued from a callback
	}
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		at := func() float64 { return float64(r.Intn(6)) }
		maybeMove := func(chance int, to float64) move {
			if r.Intn(chance) != 0 {
				return move{m: -1}
			}
			return move{r.Intn(movable), to}
		}
		var movableAt [movable]float64
		for m := range movableAt {
			movableAt[m] = at()
		}
		var plainAt [plain]float64
		var onFire, afterSetup [plain]move
		for i := range plainAt {
			plainAt[i] = at()
			onFire[i] = maybeMove(2, float64(r.Intn(3)))
			afterSetup[i] = maybeMove(4, at())
		}

		run := func(reschedule bool) (fired []string, end float64) {
			e := NewEngine()
			var ev [movable]*Event
			var fn [movable]func()
			apply := func(mv move, base float64) {
				if mv.m < 0 || ev[mv.m] == nil {
					return
				}
				if reschedule {
					e.Reschedule(ev[mv.m], base+mv.to)
				} else {
					ev[mv.m].Cancel()
					ev[mv.m] = e.At(base+mv.to, "movable", fn[mv.m])
				}
			}
			for m := range ev {
				m := m
				fn[m] = func() { fired = append(fired, fmt.Sprintf("m%d", m)); ev[m] = nil }
				ev[m] = e.At(movableAt[m], "movable", fn[m])
			}
			for i := range plainAt {
				i := i
				e.At(plainAt[i], "plain", func() {
					fired = append(fired, fmt.Sprintf("e%d", i))
					apply(onFire[i], e.Now())
				})
				apply(afterSetup[i], 0)
			}
			return fired, e.Run()
		}
		got, endGot := run(true)
		want, endWant := run(false)
		if fmt.Sprint(got) != fmt.Sprint(want) || endGot != endWant {
			t.Fatalf("seed %d: rescheduling fired\n%v (end %g)\ncancel + At fired\n%v (end %g)", seed, got, endGot, want, endWant)
		}
		if len(got) != plain+movable {
			t.Fatalf("seed %d: %d events fired, want %d", seed, len(got), plain+movable)
		}
	}
}

func requirePanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", what)
		}
	}()
	fn()
}

// An event is out of the queue from the moment Run picks it: rescheduling
// it from its own callback, after it fired or after a Cancel is a bug, and
// so is a time in the past.
func TestRescheduleRejectsEventsNoLongerPending(t *testing.T) {
	e := NewEngine()
	var self *Event
	self = e.At(1, "self", func() {
		requirePanic(t, "reschedule from the event's own callback", func() { e.Reschedule(self, 2) })
	})
	cancelled := e.At(1, "cancelled", nil)
	cancelled.Cancel()
	late := e.At(5, "late", nil)
	e.At(3, "mover", func() {
		requirePanic(t, "reschedule into the past", func() { e.Reschedule(late, 2) })
		requirePanic(t, "reschedule to NaN", func() { e.Reschedule(late, math.NaN()) })
		e.Reschedule(late, 3) // now is allowed
	})
	requirePanic(t, "reschedule of a cancelled event", func() { e.Reschedule(cancelled, 2) })
	if end := e.Run(); end != 3 {
		t.Fatalf("run ended at %g, want 3", end)
	}
	requirePanic(t, "reschedule of a fired event", func() { e.Reschedule(self, 9) })
}

// The completion callback runs inside its own event's window: FlowNet must
// forget that event before resharing, or the reshare would re-key an event
// that has left the queue. Three back-to-back completions on one link do
// that three times over.
func TestCompletionEventIsReplacedAfterItFires(t *testing.T) {
	e := NewEngine()
	n := NewFlowNet(e)
	l := NewLink("l", 1e6, 0)
	var ends []float64
	for i := 1; i <= 3; i++ {
		n.Start("f", []*Link{l}, 1e6*float64(i), func(at float64) { ends = append(ends, at) })
	}
	e.Run()
	// Shared three ways, then two, then alone: 3 s, 5 s, 6 s.
	if len(ends) != 3 || !approx(ends[0], 3) || !approx(ends[1], 5) || !approx(ends[2], 6) {
		t.Fatalf("completions at %v, want 3, 5, 6", ends)
	}
	if n.completion != nil || n.nextDone != nil {
		t.Fatal("a completion event is still remembered after the last flow finished")
	}
}

// BenchmarkReshareCrowded is the service_crowded replay's inner loop in
// isolation: about 90 flows stay active over 3 routes of a 3-cluster
// platform while flows start and finish, every one of which reshares.
func BenchmarkReshareCrowded(b *testing.B) {
	up := []*Link{NewLink("c0/uplink", 1.25e8, 1e-4), NewLink("c1/uplink", 1.25e8, 1e-4), NewLink("c2/uplink", 1.25e8, 1e-4)}
	backbone := NewLink("backbone", 1.25e9, 1e-4)
	routes := [][]*Link{
		{up[0], backbone, up[1]},
		{up[1], backbone, up[2]},
		{up[2], backbone, up[0]},
	}
	const flows = 1800 // per run, about a 64-PTG batch's redistributions
	r := rand.New(rand.NewSource(1))
	sizes := make([]float64, flows)
	for i := range sizes {
		sizes[i] = 1e6 * (1 + 9*r.Float64())
	}
	e := NewEngine()
	n := NewFlowNet(e)
	var launch func(float64)
	started := 0
	launch = func(float64) {
		if started < flows {
			n.Start("", routes[started%len(routes)], sizes[started], launch)
			started++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		n.Reset()
		started = 0
		for k := 0; k < 90; k++ {
			launch(0) // each completion launches the next: 90 stay active
		}
		e.Run()
	}
}
