package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkFairShare1000Flows measures one progressive-filling solve over
// 1000 flows crossing a 4-site-like topology of 24 links.
func BenchmarkFairShare1000Flows(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	links := make([]*Link, 24)
	for i := range links {
		links[i] = NewLink(
			string(rune('a'+i%26))+string(rune('0'+i/26)),
			1e9*(0.5+r.Float64()), 1e-4)
	}
	flows := make([]*Flow, 1000)
	for i := range flows {
		route := []*Link{links[r.Intn(len(links))]}
		for len(route) < 3 && r.Intn(2) == 0 {
			l := links[r.Intn(len(links))]
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
		flows[i] = NewTestFlow(route, 1e8*(1+r.Float64()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FairShareRates(flows)
	}
}
