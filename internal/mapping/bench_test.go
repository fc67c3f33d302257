package mapping_test

import (
	"math/rand"
	"testing"

	"ptgsched/internal/alloc"
	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/mapping"
	"ptgsched/internal/platform"
)

// BenchmarkMapLarge measures the mapping stage alone at production scale:
// 20 PTGs of 500 tasks each, mapped on all four Grid'5000 sites per
// iteration. Allocation happens once outside the timed loop, so ns/op and
// allocs/op reflect mapping.Map only — the profile target for mapper work.
func BenchmarkMapLarge(b *testing.B) {
	r := rand.New(rand.NewSource(101))
	const nPTGs = 20
	graphs := make([]*dag.Graph, nPTGs)
	for i := range graphs {
		graphs[i] = daggen.Random(daggen.RandomConfig{
			Tasks:      500,
			Width:      0.5,
			Regularity: 0.8,
			Density:    0.2,
			Jump:       2,
		}, r)
	}
	sites := platform.Grid5000Sites()
	apps := make([][]*alloc.Allocation, len(sites))
	for si, pf := range sites {
		ref := pf.ReferenceCluster()
		apps[si] = make([]*alloc.Allocation, nPTGs)
		for i, g := range graphs {
			apps[si][i] = alloc.Compute(g, ref, 1.0/nPTGs, alloc.SCRAPMAX)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for si, pf := range sites {
			s := mapping.Map(pf, apps[si], mapping.Options{})
			if len(s.Placements) != nPTGs*500 {
				b.Fatal("lost placements")
			}
		}
	}
}
