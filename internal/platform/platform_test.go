package platform

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestGrid5000TotalProcsMatchTable1(t *testing.T) {
	// §2: "These four sites differ in terms of total number of processors
	// (99, 167, 229 and 180 respectively)".
	want := map[string]int{"Lille": 99, "Nancy": 167, "Rennes": 229, "Sophia": 180}
	for _, p := range Grid5000Sites() {
		if got := p.TotalProcs(); got != want[p.Name] {
			t.Errorf("%s: TotalProcs = %d, want %d", p.Name, got, want[p.Name])
		}
	}
}

func TestGrid5000HeterogeneityMatchesPaper(t *testing.T) {
	// §2: "heterogeneity (20.2%, 6.1%, 36.8% and 34.7% respectively)".
	want := map[string]float64{"Lille": 0.202, "Nancy": 0.061, "Rennes": 0.368, "Sophia": 0.347}
	for _, p := range Grid5000Sites() {
		if got := p.Heterogeneity(); !almost(got, want[p.Name], 5e-4) {
			t.Errorf("%s: heterogeneity = %.4f, want %.3f", p.Name, got, want[p.Name])
		}
	}
}

func TestGrid5000SwitchTopology(t *testing.T) {
	// §2: Rennes and Lille share a switch; Nancy and Sophia do not.
	shared := map[string]bool{"Lille": true, "Nancy": false, "Rennes": true, "Sophia": false}
	for _, p := range Grid5000Sites() {
		if p.SharedSwitch != shared[p.Name] {
			t.Errorf("%s: SharedSwitch = %v, want %v", p.Name, p.SharedSwitch, shared[p.Name])
		}
		if p.SharedSwitch && p.Backbone != nil {
			t.Errorf("%s: shared-switch site has a backbone link", p.Name)
		}
		if !p.SharedSwitch && p.Backbone == nil {
			t.Errorf("%s: per-cluster-switch site lacks a backbone link", p.Name)
		}
	}
}

func TestClusterCounts(t *testing.T) {
	want := map[string]int{"Lille": 3, "Nancy": 2, "Rennes": 3, "Sophia": 3}
	for _, p := range Grid5000Sites() {
		if got := len(p.Clusters); got != want[p.Name] {
			t.Errorf("%s: %d clusters, want %d", p.Name, got, want[p.Name])
		}
	}
}

func TestTotalPowerIsSumOfClusterPowers(t *testing.T) {
	p := Rennes()
	sum := 0.0
	for _, c := range p.Clusters {
		sum += float64(c.Procs) * c.Speed
	}
	if !almost(p.TotalPower(), sum, 1e-9) {
		t.Fatalf("TotalPower = %g, want %g", p.TotalPower(), sum)
	}
	// Spot value: 64*3.573 + 99*3.364 + 66*4.603 = 865.506
	if !almost(p.TotalPower(), 865.506, 1e-6) {
		t.Fatalf("Rennes TotalPower = %g, want 865.506", p.TotalPower())
	}
}

func TestReferenceClusterPreservesPower(t *testing.T) {
	for _, p := range Grid5000Sites() {
		r := p.ReferenceCluster()
		if r.Procs != p.TotalProcs() {
			t.Errorf("%s: reference procs = %d, want %d", p.Name, r.Procs, p.TotalProcs())
		}
		if !almost(r.Power(), p.TotalPower(), 1e-6) {
			t.Errorf("%s: reference power = %g, want %g", p.Name, r.Power(), p.TotalPower())
		}
	}
}

func TestRouteIntraCluster(t *testing.T) {
	p := Lille()
	c := p.Clusters[0]
	route := p.Route(c, c)
	if len(route) != 1 || route[0] != c.Intra {
		t.Fatalf("intra-cluster route = %v, want [intra]", route)
	}
}

func TestRouteSharedSwitch(t *testing.T) {
	p := Lille() // shared switch
	a, b := p.Clusters[0], p.Clusters[1]
	route := p.Route(a, b)
	if len(route) != 2 || route[0] != a.Uplink || route[1] != b.Uplink {
		t.Fatalf("shared-switch route has %d links, want 2 uplinks", len(route))
	}
}

func TestRoutePerClusterSwitch(t *testing.T) {
	p := Sophia() // per-cluster switches
	a, b := p.Clusters[0], p.Clusters[2]
	route := p.Route(a, b)
	if len(route) != 3 || route[1] != p.Backbone {
		t.Fatalf("per-cluster-switch route has %d links, want uplink+backbone+uplink", len(route))
	}
}

func TestTransferTimeScalesWithBytes(t *testing.T) {
	p := Nancy()
	a, b := p.Clusters[0], p.Clusters[1]
	t1 := p.TransferTime(a, b, 1e6)
	t2 := p.TransferTime(a, b, 2e6)
	if t2 <= t1 {
		t.Fatalf("transfer time not increasing: %g then %g", t1, t2)
	}
	// Latency-only transfer.
	t0 := p.TransferTime(a, b, 0)
	if !almost(t0, 3*LANLatency, 1e-12) {
		t.Fatalf("zero-byte inter-cluster time = %g, want %g", t0, 3*LANLatency)
	}
}

func TestTransferTimeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative transfer size did not panic")
		}
	}()
	p := Lille()
	p.TransferTime(p.Clusters[0], p.Clusters[1], -1)
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"no clusters", func() { New("x", true) }},
		{"zero procs", func() { New("x", true, ClusterSpec{Name: "c", Procs: 0, Speed: 1}) }},
		{"zero speed", func() { New("x", true, ClusterSpec{Name: "c", Procs: 1, Speed: 0}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: did not panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

// Property: for any valid random platform, the reference cluster preserves
// total power and heterogeneity is non-negative.
func TestReferenceProperty(t *testing.T) {
	f := func(n uint8, seeds [6]uint16) bool {
		k := int(n%4) + 1
		specs := make([]ClusterSpec, k)
		for i := range specs {
			specs[i] = ClusterSpec{
				Name:  string(rune('a' + i)),
				Procs: int(seeds[i]%200) + 1,
				Speed: 1 + float64(seeds[i]%50)/10,
			}
		}
		p := New("prop", n%2 == 0, specs...)
		r := p.ReferenceCluster()
		return almost(r.Power(), p.TotalPower(), 1e-6*p.TotalPower()) && p.Heterogeneity() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
