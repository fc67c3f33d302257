package simexec_test

import (
	"math/rand"
	"testing"

	"ptgsched/internal/alloc"
	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/mapping"
	"ptgsched/internal/platform"
	"ptgsched/internal/simexec"
	"ptgsched/internal/strategy"
)

// BenchmarkExecuteCrowded is the service_crowded request's simulate stage
// alone: eight 64-PTG ES batches of random graphs, two per Grid'5000 site,
// mapped once and replayed on one Scratch. One iteration replays all eight;
// the sum of their makespans is reported, so a replay that goes wrong shows
// as a different number rather than as a faster one.
func BenchmarkExecuteCrowded(b *testing.B) {
	sites := platform.Grid5000Sites()
	scheds := make([]*mapping.Schedule, 8)
	for i := range scheds {
		pf := sites[i%len(sites)]
		r := rand.New(rand.NewSource(int64(301 + i)))
		graphs := make([]*dag.Graph, 64)
		for k := range graphs {
			graphs[k] = daggen.Generate(daggen.FamilyRandom, r)
		}
		ref := pf.ReferenceCluster()
		betas := strategy.ES().Betas(graphs, ref)
		apps := make([]*alloc.Allocation, len(graphs))
		for k, g := range graphs {
			apps[k] = alloc.Compute(g, ref, betas[k], alloc.SCRAPMAX)
		}
		scheds[i] = mapping.Map(pf, apps, mapping.Options{})
	}
	sc := simexec.NewScratch()
	var sum float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum = 0
		for _, s := range scheds {
			sum += sc.Execute(s).Makespan
		}
	}
	b.ReportMetric(sum, "makespan_sum_s")
}
