package sim

// Differential oracles for the route-class fair-share solver, the re-keyed
// completion event and Engine.Reschedule. oracleSolver is the per-flow
// progressive-filling solver this package shipped before classes, kept
// verbatim (register, ensureRanks, solve); oracleNet is the FlowNet that
// drove it, with one cancelled event and one new event per reshare. Every
// comparison below is on math.Float64bits, not on a tolerance.

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// transfer is one flow of a scenario. then, if non-nil, is started from its
// completion callback, at the instant it completes.
type transfer struct {
	route []*Link
	bytes float64
	then  *transfer
}

// launch starts its transfers, in order, from one callback at time at.
type launch struct {
	at        float64
	transfers []*transfer
}

// play schedules the launches on eng, starting every flow through start,
// and returns the record the completions will be appended to. Flows are
// numbered as they start.
func play(eng *Engine, launches []launch, start func([]*Link, float64, func(float64))) *[]completionRecord {
	rec := new([]completionRecord)
	started := 0
	var begin func(*transfer)
	begin = func(tr *transfer) {
		id := started
		started++
		start(tr.route, tr.bytes, func(at float64) {
			*rec = append(*rec, completionRecord{id, math.Float64bits(at)})
			if tr.then != nil {
				begin(tr.then)
			}
		})
	}
	for _, l := range launches {
		l := l
		eng.At(l.at, "launch", func() {
			for _, tr := range l.transfers {
				begin(tr)
			}
		})
	}
	return rec
}

// requireOrderedClasses checks what FlowNet promises of its flow sets
// between events: every live class's set holds the class's count of flows
// in order of remaining bytes, no other set holds any, and ActiveFlows is
// their sum.
func requireOrderedClasses(t testing.TB, what string, n *FlowNet) {
	t.Helper()
	s := &n.solver
	total := 0
	for c := range n.sets {
		set, count := &n.sets[c], 0
		if c < len(s.classes) {
			cl := &s.classes[c]
			count = cl.count
			if live := cl.pos < len(s.live) && s.live[cl.pos] == c; live != (count > 0) {
				t.Fatalf("%s: class %d with %d flows: live is %v", what, c, count, live)
			}
		}
		if len(set.rem) != count || len(set.flows) != count {
			t.Fatalf("%s: class %d counts %d flows, its set holds %d remainders and %d flows", what, c, count, len(set.rem), len(set.flows))
		}
		if !slices.IsSorted(set.rem) {
			t.Fatalf("%s: class %d out of order: %v", what, c, set.rem)
		}
		total += count
	}
	if len(n.sets) < len(s.classes) {
		t.Fatalf("%s: %d flow sets for %d classes", what, len(n.sets), len(s.classes))
	}
	if n.ActiveFlows() != total {
		t.Fatalf("%s: ActiveFlows is %d, the sets hold %d", what, n.ActiveFlows(), total)
	}
}

// requireNoFlowsPinned checks, after a Reset, that no flow set the net ever
// used still references a flow.
func requireNoFlowsPinned(t testing.TB, what string, n *FlowNet) {
	t.Helper()
	for c, set := range n.sets[:cap(n.sets)] {
		for i, f := range set.flows[:cap(set.flows)] {
			if f != nil {
				t.Fatalf("%s: flow set %d still references a flow at %d after Reset", what, c, i)
			}
		}
	}
}

// requireSameCompletions plays the launches through oracleNet, then twice
// through net: once under Engine.Run, and once event by event — cut short
// and Reset halfway first, when cut is set — with the class invariants
// checked after every event. Each run must give the oracle's completions in
// the oracle's order at bit-equal times.
func requireSameCompletions(t testing.TB, what string, eng *Engine, net *FlowNet, launches []launch, links int, cut bool) {
	t.Helper()
	ref := &oracleNet{eng: NewEngine()}
	want := play(ref.eng, launches, ref.Start)
	endWant := ref.eng.Run()

	start := func(route []*Link, bytes float64, onDone func(float64)) { net.Start("", route, bytes, onDone) }
	compare := func(how string, got []completionRecord, end float64) {
		t.Helper()
		if len(got) != len(*want) {
			t.Fatalf("%s, %s: %d completions, oracle net has %d", what, how, len(got), len(*want))
		}
		for i, w := range *want {
			if got[i] != w {
				t.Fatalf("%s, %s: completion %d is flow %d at %v, oracle net has flow %d at %v", what, how, i,
					got[i].flow, math.Float64frombits(got[i].at), w.flow, math.Float64frombits(w.at))
			}
		}
		if end != endWant {
			t.Fatalf("%s, %s: run ended at %v, oracle net at %v", what, how, end, endWant)
		}
		if n := net.RegisteredLinks(); n > links {
			t.Fatalf("%s, %s: %d links registered, the run had %d", what, how, n, links)
		}
		if net.ActiveFlows() != 0 || len(net.solver.live) != 0 {
			t.Fatalf("%s, %s: %d flows, %d classes still live after the run", what, how, net.ActiveFlows(), len(net.solver.live))
		}
		// One start event per group of flows and one completion event
		// re-keyed in place: at most a launch, a start and a completion
		// event per transfer drawn from the arena, not one more per reshare.
		if drawn := eng.evBlock*eventBlockSize + eng.evUsed; drawn > 3*len(got) {
			t.Fatalf("%s, %s: %d events drawn for %d transfers", what, how, drawn, len(got))
		}
	}

	eng.Reset()
	net.Reset()
	got := play(eng, launches, start)
	compare("run", *got, eng.Run())

	// step fires up to limit events the way Run does.
	step := func(limit int) {
		for ; len(eng.queue) > 0 && limit > 0; limit-- {
			ev := eng.pop()
			eng.now = ev.time
			ev.fn()
			requireOrderedClasses(t, what, net)
		}
	}
	eng.Reset()
	net.Reset()
	requireNoFlowsPinned(t, what, net)
	if cut {
		play(eng, launches, start)
		step(len(*want))
		eng.Reset()
		net.Reset()
		requireNoFlowsPinned(t, what+", cut short", net)
	}
	got = play(eng, launches, start)
	step(math.MaxInt)
	compare("event by event", *got, eng.now)
}

// TestFlowNetMatchesOracleNet drives the same randomly staggered transfers
// — few routes and many flows, as a schedule replay does, plus the
// occasional zero-byte and repeated-link flow — through FlowNet and
// through oracleNet, and requires the same completions in the same order
// at bit-equal times. Several transfers start from one callback, so start
// events are shared, some with a zero-byte flow between two others; some
// completion callbacks start a flow of their own at that instant; a third
// of the scenarios run on zero-latency links, where such a flow's start
// falls on the instant of an event that has just fired, and a third move
// 1e10 to 1e12 bytes, where an ulp of the remainder exceeds the 1e-6 snap
// and a tied neighbour of the force-retired target keeps a positive
// residue. One FlowNet serves every scenario, so the per-run registries
// and class vectors are exercised across Resets onto other links.
func TestFlowNetMatchesOracleNet(t *testing.T) {
	eng := NewEngine()
	net := NewFlowNet(eng)
	for seed := int64(0); seed < 90; seed++ {
		r := rand.New(rand.NewSource(500 + seed))
		zeroLatency, big := seed%3 == 1, seed%3 == 2
		links := make([]*Link, 2+r.Intn(6))
		for i := range links {
			lat := 1e-4 * float64(r.Intn(4))
			if zeroLatency {
				lat = 0
			}
			links[i] = NewLink(fmt.Sprintf("l%d", i%5), 1e8*(0.5+4*r.Float64()), lat)
		}
		routes := make([][]*Link, 1+r.Intn(5))
		for i := range routes {
			for n := 1 + r.Intn(4); n > 0; n-- {
				routes[i] = append(routes[i], links[r.Intn(len(links))])
			}
		}
		var draw func(depth int) *transfer
		draw = func(depth int) *transfer {
			tr := &transfer{
				route: routes[r.Intn(len(routes))],
				bytes: 1e6 * float64(r.Intn(60)), // some empty, many equal
			}
			if big && r.Intn(2) == 0 {
				tr.bytes = 1e10 * float64(1+r.Intn(100))
			}
			if depth < 2 && r.Intn(5) == 0 {
				tr.then = draw(depth + 1)
			}
			return tr
		}
		launches := make([]launch, 10+r.Intn(80))
		for i := range launches {
			launches[i].at = float64(r.Intn(40)) * 0.05 // many simultaneous launches
			for n := 1 + r.Intn(5); n > 0; n-- {
				launches[i].transfers = append(launches[i].transfers, draw(0))
			}
		}
		requireSameCompletions(t, fmt.Sprintf("seed %d", seed), eng, net, launches, len(links), seed%4 == 0)
	}
}

// TestFlowNetMatchesOracleNetOnExactTies: hand-built scenarios for what
// random sizes do not hit — events that tie with the completion event to
// the bit, and remainders an ulp apart. On a link of 1e8 bytes/s and 1e-4 s
// a lone flow of 1e4 bytes transfers for exactly the link's latency.
func TestFlowNetMatchesOracleNetOnExactTies(t *testing.T) {
	eng := NewEngine()
	net := NewFlowNet(eng)
	slow := []*Link{NewLink("l", 1e8, 1e-4)}
	flow := func(bytes float64, then *transfer) *transfer { return &transfer{route: slow, bytes: bytes, then: then} }
	for name, launches := range map[string][]launch{
		// p and z share a start event. z's completion starts y, whose
		// start event falls on the instant of p's completion and must
		// follow it: the group reshares before z finishes.
		"empty flow after a joined one": {
			{at: 0, transfers: []*transfer{flow(1e4, nil), flow(0, flow(0, nil))}},
		},
		// a's start event is pending at 2e-4 when z's completion starts b
		// for that same instant, but p has been activated in between and
		// its completion, also at 2e-4, is keyed between the two.
		"no sharing across a reshare": {
			{at: 0, transfers: []*transfer{flow(1e4, nil), flow(0, flow(0, nil))}},
			{at: 1e-4, transfers: []*transfer{flow(0, nil)}},
		},
		// y starts from the callback of the start event it would join.
		"no sharing with an event that fired": {
			{at: 0, transfers: []*transfer{flow(0, flow(1e6, nil)), flow(1e6, nil), flow(0, flow(0, nil))}},
		},
	} {
		requireSameCompletions(t, name, eng, net, launches, 1, true)
	}
	// The second flow arrives one ulp short of what the first has left, so
	// it sorts first, and for some sizes both quotients round to one
	// completion time: the older flow is the target, from behind the
	// younger one. Early in a long transfer the younger is then retired
	// with it or left with an ulp; late in the run, where the clock's own
	// ulp is what cuts the last step short, it keeps a residue above the
	// snap, ahead of the target.
	wire := []*Link{NewLink("l", 1e8, 0)}
	ulpApart := func(size, at float64) {
		requireSameCompletions(t, fmt.Sprintf("an ulp apart, %g bytes at %g", size, at), eng, net, []launch{
			{at: 0, transfers: []*transfer{{route: wire, bytes: size}}},
			{at: at, transfers: []*transfer{{route: wire, bytes: math.Nextafter(size-float64(1e8*at), 0)}}},
		}, 1, false)
	}
	for k := 1; k <= 8; k++ {
		for j := 1; j <= 8; j++ {
			ulpApart(1e10*float64(k), 0.05*float64(j))
		}
	}
	for k := 1; k <= 20; k++ {
		for j := 1; j <= 4; j++ {
			at := 1000.3 * float64(j)
			ulpApart(float64(1e8*at)+1e6*float64(k), at)
		}
	}
}

// scenarioFromBytes decodes fuzz input: links and routes, then transfers
// of (time and grouping, route, size) with times from six values — two of
// them 1e-4 apart, one link latency — and sizes from eight, 0 and a repeat
// among them.
func scenarioFromBytes(data []byte) (launches []launch, links int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	ls := make([]*Link, 1+next()%5)
	for i := range ls {
		b := next()
		ls[i] = NewLink(fmt.Sprintf("l%d", b%3), []float64{1e8, 2.5e8, 1e9 / 3, 1.25e9}[b/4%4], []float64{0, 0, 1e-4, 3e-4}[b/16%4])
	}
	routes := make([][]*Link, 1+next()%5)
	for i := range routes {
		for n := 1 + next()%3; n > 0; n-- {
			routes[i] = append(routes[i], ls[next()%len(ls)])
		}
	}
	times := []float64{0, 1e-4, 0.05, 0.1, 0.1 + 1e-4, 2}
	sizes := []float64{0, 1e4, 1e6, 1e6, 3e6, 7.5e6, 1e10, 1e12 / 3}
	var last *transfer
	for n := 0; len(data) > 0 && n < 400; n++ {
		b := next()
		tr := &transfer{route: routes[next()%len(routes)], bytes: sizes[next()%len(sizes)]}
		switch {
		case last != nil && b&0xc0 == 0x40:
			last.then = tr // started by the previous transfer's completion
		case last != nil && b&0x80 != 0:
			l := &launches[len(launches)-1]
			l.transfers = append(l.transfers, tr) // from the previous one's callback
		default:
			launches = append(launches, launch{at: times[b%len(times)], transfers: []*transfer{tr}})
		}
		last = tr
	}
	return launches, len(ls)
}

// FuzzFlowNetMatchesOracleNet: a byte-driven transfer list through FlowNet
// and oracleNet, same completions in the same order at bit-equal times.
func FuzzFlowNetMatchesOracleNet(f *testing.F) {
	f.Add([]byte{1, 0x20, 0x04, 0, 0, 0, 1, 1, 0, 0, 1, 0x80, 0, 0, 0x80, 0, 1, 0x40, 0, 2, 2, 0, 1})
	f.Add([]byte{0, 0x0c, 0, 0, 0, 0, 0, 6, 0x80, 0, 6, 0x80, 0, 6, 0x80, 0, 7, 0x40, 0, 0, 4, 0, 6})
	f.Add([]byte{3, 0x21, 0x32, 0x05, 0x18, 2, 2, 0, 1, 1, 3, 2, 1, 0, 0, 3, 1, 0x83, 1, 1, 0x83, 2, 0, 0x83, 0, 3, 5, 1, 4, 0x42, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		launches, links := scenarioFromBytes(data)
		if len(launches) == 0 {
			return
		}
		eng := NewEngine()
		requireSameCompletions(t, "fuzz", eng, NewFlowNet(eng), launches, links, len(data)%2 == 0)
	})
}

// refEvent and refQueue are the event queue as the engine kept it before
// sifting inline: a container/heap on (time, seq).
type refEvent struct {
	time  float64
	seq   int64
	index int
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }

func (q refQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *refQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	ev.index = -1
	return ev
}

// TestQueueMatchesContainerHeap: seeded interleavings of At, pop and
// Reschedule with times from four values, mirrored on a container/heap;
// both pop the same events in the same order, and every queued event knows
// its position.
func TestQueueMatchesContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var ref refQueue
		mirror := map[*Event]*refEvent{}
		var pending []*Event
		for op := 0; op < 400; op++ {
			at := float64(r.Intn(4))
			switch k := r.Intn(5); {
			case k < 2 || len(pending) == 0:
				ev := e.At(at, "ev", nil)
				mirror[ev] = &refEvent{time: ev.time, seq: ev.seq}
				heap.Push(&ref, mirror[ev])
				pending = append(pending, ev)
			case k < 4:
				ev := pending[r.Intn(len(pending))]
				e.Reschedule(ev, at)
				m := mirror[ev]
				m.time, m.seq = ev.time, ev.seq
				heap.Fix(&ref, m.index)
			default:
				ev, want := e.pop(), heap.Pop(&ref).(*refEvent)
				if mirror[ev] != want {
					t.Fatalf("seed %d, op %d: popped (%g, %d), container/heap pops (%g, %d)", seed, op, ev.time, ev.seq, want.time, want.seq)
				}
				pending = slices.DeleteFunc(pending, func(p *Event) bool { return p == ev })
			}
			for i, ev := range e.queue {
				if ev.index != i {
					t.Fatalf("seed %d, op %d: event at queue position %d believes it is at %d", seed, op, i, ev.index)
				}
			}
		}
		for len(e.queue) > 0 {
			if ev, want := e.pop(), heap.Pop(&ref).(*refEvent); mirror[ev] != want {
				t.Fatalf("seed %d, draining: popped (%g, %d), container/heap pops (%g, %d)", seed, ev.time, ev.seq, want.time, want.seq)
			}
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
