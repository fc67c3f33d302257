package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

const floatTol = 1e-6

func approx(a, b float64) bool {
	return math.Abs(a-b) <= floatTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSingleFlowTransferTime(t *testing.T) {
	e := NewEngine()
	n := NewFlowNet(e)
	link := NewLink("l", 1e9, 1e-4) // 1 GB/s, 100 us
	var end float64
	n.Start([]*Link{link}, 1e9, func(tEnd float64) { end = tEnd })
	e.Run()
	want := 1e-4 + 1.0
	if !approx(end, want) {
		t.Fatalf("end = %g, want %g", end, want)
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	e := NewEngine()
	n := NewFlowNet(e)
	link := NewLink("l", 1e9, 0)
	var end1, end2 float64
	n.Start([]*Link{link}, 1e9, func(tEnd float64) { end1 = tEnd })
	n.Start([]*Link{link}, 1e9, func(tEnd float64) { end2 = tEnd })
	e.Run()
	// Both share 1 GB/s: each gets 0.5 GB/s, both finish at t=2.
	if !approx(end1, 2) || !approx(end2, 2) {
		t.Fatalf("ends = %g, %g, want 2, 2", end1, end2)
	}
}

func TestFlowRateRecomputedOnDeparture(t *testing.T) {
	e := NewEngine()
	n := NewFlowNet(e)
	link := NewLink("l", 1e9, 0)
	var endBig float64
	n.Start([]*Link{link}, 0.5e9, nil)
	n.Start([]*Link{link}, 1.5e9, func(tEnd float64) { endBig = tEnd })
	e.Run()
	// Shared until small done: small has 0.5 GB at 0.5 GB/s -> t=1.
	// Big transferred 0.5 GB by then; remaining 1.0 GB at full rate -> t=2.
	if !approx(endBig, 2) {
		t.Fatalf("big end = %g, want 2", endBig)
	}
}

func TestFlowLateArrivalShares(t *testing.T) {
	e := NewEngine()
	n := NewFlowNet(e)
	link := NewLink("l", 1e9, 0)
	var endA, endB float64
	n.Start([]*Link{link}, 2e9, func(tEnd float64) { endA = tEnd })
	e.After(1, func() {
		n.Start([]*Link{link}, 0.5e9, func(tEnd float64) { endB = tEnd })
	})
	e.Run()
	// a alone for 1 s (1 GB done). Then share: a rate 0.5, b rate 0.5.
	// b finishes at t=2 (0.5 GB at 0.5 GB/s). a has 0.5 GB left at t=2,
	// full rate again -> t=2.5.
	if !approx(endB, 2) {
		t.Fatalf("b end = %g, want 2", endB)
	}
	if !approx(endA, 2.5) {
		t.Fatalf("a end = %g, want 2.5", endA)
	}
}

func TestFlowMultiLinkRouteLatencyAdds(t *testing.T) {
	e := NewEngine()
	n := NewFlowNet(e)
	l1 := NewLink("l1", 1e9, 1e-3)
	l2 := NewLink("l2", 2e9, 1e-3)
	var end float64
	n.Start([]*Link{l1, l2}, 1e9, func(tEnd float64) { end = tEnd })
	e.Run()
	// Bottleneck is l1 at 1 GB/s; latency 2 ms.
	want := 2e-3 + 1.0
	if !approx(end, want) {
		t.Fatalf("end = %g, want %g", end, want)
	}
}

func TestZeroByteFlowTakesLatencyOnly(t *testing.T) {
	e := NewEngine()
	n := NewFlowNet(e)
	link := NewLink("l", 1e9, 0.25)
	var end float64
	n.Start([]*Link{link}, 0, func(tEnd float64) { end = tEnd })
	e.Run()
	if !approx(end, 0.25) {
		t.Fatalf("end = %g, want 0.25", end)
	}
}

func TestEmptyRouteFlowIsImmediate(t *testing.T) {
	e := NewEngine()
	n := NewFlowNet(e)
	var end = -1.0
	n.Start(nil, 42, func(tEnd float64) { end = tEnd })
	e.Run()
	if end != 0 {
		t.Fatalf("local flow ended at %g, want 0", end)
	}
}

// TestEmptyRouteFlowCompletesSynchronously pins Start's documented
// contract for local exchanges: the flow is finished — and onDone has
// fired at the current virtual time — before Start returns, with no
// engine event involved.
func TestEmptyRouteFlowCompletesSynchronously(t *testing.T) {
	e := NewEngine()
	n := NewFlowNet(e)
	end := -1.0
	f := n.Start(nil, 42, func(tEnd float64) { end = tEnd })
	if !f.Done() {
		t.Fatal("empty-route flow not done when Start returned")
	}
	if end != 0 {
		t.Fatalf("onDone fired at %g before Run, want 0", end)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events pending, want 0 (no engine involvement)", e.Pending())
	}

	// Mid-simulation the completion time is the current virtual instant.
	at := -1.0
	e.At(3, func() {
		n.Start(nil, 7, func(tEnd float64) { at = tEnd })
	})
	e.Run()
	if at != 3 {
		t.Fatalf("mid-run local flow ended at %g, want 3", at)
	}
}

// TestZeroByteEmptyRouteFlow covers the degenerate corner of both rules:
// no bytes and no links still means synchronous completion.
func TestZeroByteEmptyRouteFlow(t *testing.T) {
	e := NewEngine()
	n := NewFlowNet(e)
	end := -1.0
	f := n.Start(nil, 0, func(tEnd float64) { end = tEnd })
	if !f.Done() || end != 0 {
		t.Fatalf("zero-byte empty-route flow: done=%v end=%g, want done at 0", f.Done(), end)
	}
}

// TestZeroByteFlowNotDoneBeforeLatency pins the asymmetry with non-empty
// routes: a zero-byte flow over links still waits for the route latency,
// so it is not done when Start returns.
func TestZeroByteFlowNotDoneBeforeLatency(t *testing.T) {
	e := NewEngine()
	n := NewFlowNet(e)
	link := NewLink("l", 1e9, 0.5)
	f := n.Start([]*Link{link}, 0, nil)
	if f.Done() {
		t.Fatal("zero-byte routed flow done before its latency elapsed")
	}
	e.Run()
	if !f.Done() {
		t.Fatal("zero-byte routed flow never finished")
	}
	if now := e.Now(); !approx(now, 0.5) {
		t.Fatalf("finished at %g, want 0.5 (latency)", now)
	}
}

func TestNegativeFlowSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative flow size did not panic")
		}
	}()
	e := NewEngine()
	NewFlowNet(e).Start([]*Link{NewLink("l", 1, 0)}, -1, nil)
}

// A class's vector is ordered by remaining bytes: it must never be handed a
// NaN, which passes a "< 0" test, nor a size that never drains.
func TestNonFiniteFlowSizePanics(t *testing.T) {
	n := NewFlowNet(NewEngine())
	for _, size := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		requirePanic(t, fmt.Sprintf("flow of %g bytes", size), func() {
			n.Start([]*Link{NewLink("l", 1, 0)}, size, nil)
		})
	}
}

func TestFairShareBottleneckAsymmetry(t *testing.T) {
	// Three flows: f1 on narrow link only, f2 on both, f3 on wide link only.
	narrow := NewLink("narrow", 10, 0)
	wide := NewLink("wide", 100, 0)
	f1 := &Flow{route: []*Link{narrow}, remaining: 1}
	f2 := &Flow{route: []*Link{narrow, wide}, remaining: 1}
	f3 := &Flow{route: []*Link{wide}, remaining: 1}
	FairShareRates([]*Flow{f1, f2, f3})
	// narrow: 10/2 = 5 for f1 and f2. wide: remaining 95 for f3.
	if !approx(f1.rate, 5) || !approx(f2.rate, 5) {
		t.Fatalf("narrow flows rates = %g, %g, want 5, 5", f1.rate, f2.rate)
	}
	if !approx(f3.rate, 95) {
		t.Fatalf("wide-only flow rate = %g, want 95", f3.rate)
	}
}

// Property: fair-share rates never oversubscribe any link and every flow
// gets a strictly positive rate.
func TestFairShareConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nLinks := r.Intn(5) + 1
		links := make([]*Link, nLinks)
		for i := range links {
			links[i] = NewLink(string(rune('a'+i)), 1+r.Float64()*99, 0)
		}
		nFlows := r.Intn(10) + 1
		flows := make([]*Flow, nFlows)
		for i := range flows {
			// Random non-empty subset of links as route.
			var route []*Link
			for _, l := range links {
				if r.Intn(2) == 0 {
					route = append(route, l)
				}
			}
			if len(route) == 0 {
				route = []*Link{links[r.Intn(nLinks)]}
			}
			flows[i] = &Flow{route: route, remaining: 1}
		}
		FairShareRates(flows)
		load := make(map[*Link]float64)
		for _, fl := range flows {
			if fl.rate <= 0 {
				return false
			}
			for _, l := range fl.route {
				load[l] += fl.rate
			}
		}
		for l, total := range load {
			if total > l.Capacity*(1+floatTol) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: max-min fairness — no flow can increase its rate without
// decreasing the rate of a flow with an equal or smaller rate. We check the
// weaker but decisive bottleneck condition: every flow crosses at least one
// saturated link where it has the maximal rate among crossing flows.
func TestFairShareMaxMinProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		links := []*Link{
			NewLink("a", 1+r.Float64()*10, 0),
			NewLink("b", 1+r.Float64()*10, 0),
			NewLink("c", 1+r.Float64()*10, 0),
		}
		nFlows := r.Intn(6) + 2
		flows := make([]*Flow, nFlows)
		for i := range flows {
			route := []*Link{links[r.Intn(len(links))]}
			if r.Intn(2) == 0 {
				route = append(route, links[r.Intn(len(links))])
				if route[1] == route[0] {
					route = route[:1]
				}
			}
			flows[i] = &Flow{route: route, remaining: 1}
		}
		FairShareRates(flows)
		load := make(map[*Link]float64)
		maxRate := make(map[*Link]float64)
		for _, fl := range flows {
			for _, l := range fl.route {
				load[l] += fl.rate
				if fl.rate > maxRate[l] {
					maxRate[l] = fl.rate
				}
			}
		}
		for _, fl := range flows {
			hasBottleneck := false
			for _, l := range fl.route {
				saturated := load[l] >= l.Capacity*(1-1e-9)
				if saturated && fl.rate >= maxRate[l]-floatTol {
					hasBottleneck = true
					break
				}
			}
			if !hasBottleneck {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFlowNoStallAtLargeClockValues is a regression test: flows finishing
// at large virtual times used to leave floating-point residue (remaining ≈
// rate·ulp(now)) whose completion event fired at the same representable
// instant forever, stalling the simulation. Every completion event must
// retire at least one flow.
func TestFlowNoStallAtLargeClockValues(t *testing.T) {
	e := NewEngine()
	n := NewFlowNet(e)
	link := NewLink("l", 1.25e9, 1e-4)
	r := rand.New(rand.NewSource(3))
	finished := 0
	const total = 40
	for i := 0; i < total; i++ {
		at := 1e5 + r.Float64()*10
		e.At(at, func() {
			n.Start([]*Link{link}, 1e8*(1+r.Float64()), func(float64) { finished++ })
		})
	}
	doneBy := make(chan struct{})
	go func() {
		e.Run()
		close(doneBy)
	}()
	select {
	case <-doneBy:
	case <-time.After(10 * time.Second):
		t.Fatal("simulation stalled (zero-dt completion loop)")
	}
	if finished != total {
		t.Fatalf("%d flows finished, want %d", finished, total)
	}
}

func TestManyConcurrentFlowsDeterministic(t *testing.T) {
	run := func() float64 {
		e := NewEngine()
		n := NewFlowNet(e)
		backbone := NewLink("bb", 1e9, 1e-4)
		a := NewLink("a", 1e9, 1e-4)
		b := NewLink("b", 1e9, 1e-4)
		r := rand.New(rand.NewSource(7))
		for i := 0; i < 50; i++ {
			route := []*Link{a, backbone, b}
			if i%2 == 0 {
				route = []*Link{b, backbone, a}
			}
			n.Start(route, 1e6+r.Float64()*1e8, nil)
		}
		return e.Run()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d end time %g != first %g", i, got, first)
		}
	}
}

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done }
