// Micro-benchmarks over the exported API, for profile work: Table 1 and
// the Fig. 1 illustration, the mapping/ordering/packing ablations, the
// related-work baselines, the online scheduler and the store's append.
// The figure campaigns, MapLarge and FairShare1000Flows live next to
// their packages (internal/experiment, internal/mapping, internal/sim).
// None of these is a performance record: claims are made with the
// repository's benchmark, bench/run.sh (see bench/README.md).
package ptgsched_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"ptgsched"
)

// BenchmarkTable1Platforms regenerates Table 1: the four Grid'5000 subsets
// and their derived properties (§2).
func BenchmarkTable1Platforms(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, pf := range ptgsched.Grid5000Sites() {
			total += pf.TotalProcs()
			_ = pf.TotalPower()
			_ = pf.Heterogeneity()
		}
		if total != 99+167+229+180 {
			b.Fatal("platform inventory mismatch")
		}
	}
}

// BenchmarkFig1Ordering runs the two-PTG illustration of §5 under both
// orderings.
func BenchmarkFig1Ordering(b *testing.B) {
	pf := ptgsched.NewPlatform("fig1", true, ptgsched.ClusterSpec{Name: "c0", Procs: 2, Speed: 1})
	mk := func(name string, works ...float64) *ptgsched.Graph {
		g := ptgsched.NewGraph(name)
		var prev *ptgsched.Task
		for _, w := range works {
			t := g.AddTask(name, 1, w, 0)
			if prev != nil {
				g.MustAddEdge(prev, t, 0)
			}
			prev = t
		}
		return g
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, ordering := range []ptgsched.MapOptions{
			{Ordering: ptgsched.GlobalOrdering},
			{Ordering: ptgsched.ReadyTasksOrdering},
		} {
			sched := ptgsched.NewScheduler(pf)
			sched.MapOptions = ordering
			res := sched.Schedule([]*ptgsched.Graph{mk("big", 10, 5), mk("small", 2, 2)}, ptgsched.ES())
			if res.GlobalMakespan() <= 0 {
				b.Fatal("empty schedule")
			}
		}
	}
}

// batchOn builds a deterministic batch of allocated-and-mapped PTGs for the
// ablation benches.
func benchBatch(n int, seed int64) []*ptgsched.Graph {
	r := rand.New(rand.NewSource(seed))
	graphs := make([]*ptgsched.Graph, n)
	for i := range graphs {
		graphs[i] = ptgsched.GeneratePTG(ptgsched.FamilyRandom, r)
	}
	return graphs
}

// BenchmarkAblationOrdering compares the cost of ready-task vs global
// ordering (ablation #1, `ptgbench -experiment ablation`).
func BenchmarkAblationOrdering(b *testing.B) {
	pf := ptgsched.Rennes()
	for _, variant := range []struct {
		name string
		opts ptgsched.MapOptions
	}{
		{"ready", ptgsched.MapOptions{}},
		{"global", ptgsched.MapOptions{Ordering: ptgsched.GlobalOrdering}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			graphs := benchBatch(6, 7)
			sched := ptgsched.NewScheduler(pf)
			sched.MapOptions = variant.opts
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sched.Schedule(graphs, ptgsched.ES()).GlobalMakespan() <= 0 {
					b.Fatal("empty schedule")
				}
			}
		})
	}
}

// BenchmarkAblationPacking compares packing on/off (ablation #2, `ptgbench -experiment ablation`).
func BenchmarkAblationPacking(b *testing.B) {
	pf := ptgsched.Sophia()
	for _, variant := range []struct {
		name string
		opts ptgsched.MapOptions
	}{
		{"packing", ptgsched.MapOptions{}},
		{"no-packing", ptgsched.MapOptions{NoPacking: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			graphs := benchBatch(6, 11)
			sched := ptgsched.NewScheduler(pf)
			sched.MapOptions = variant.opts
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sched.Schedule(graphs, ptgsched.ES()).GlobalMakespan() <= 0 {
					b.Fatal("empty schedule")
				}
			}
		})
	}
}

// BenchmarkAblationScrapVsScrapMax compares the two allocation procedures
// (ablation #3, `ptgbench -experiment ablation`) through the CPA equivalence: SCRAP is exercised
// via the CPA baseline, SCRAP-MAX via the default scheduler.
func BenchmarkAblationScrapVsScrapMax(b *testing.B) {
	pf := ptgsched.Lille()
	ref := pf.ReferenceCluster()
	graphs := benchBatch(4, 13)
	b.Run("scrap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range graphs {
				if len(ptgsched.CPA(g, ref).Procs) == 0 {
					b.Fatal("empty allocation")
				}
			}
		}
	})
	b.Run("scrap-max", func(b *testing.B) {
		sched := ptgsched.NewScheduler(pf)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sched.Schedule(graphs, ptgsched.S()).GlobalMakespan() <= 0 {
				b.Fatal("empty schedule")
			}
		}
	})
}

// BenchmarkBaselines measures the related-work single-PTG schedulers.
func BenchmarkBaselines(b *testing.B) {
	pf := ptgsched.Nancy()
	g := benchBatch(1, 17)[0]
	b.Run("heft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ptgsched.HEFT(pf, g).GlobalMakespan() <= 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("mheft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ptgsched.MHEFT(pf, g).GlobalMakespan() <= 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("hcpa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ptgsched.HCPA(pf, g).GlobalMakespan() <= 0 {
				b.Fatal("empty")
			}
		}
	})
}

// BenchmarkOnlineDynamicSubmissions measures the §8 future-work extension:
// Poisson arrivals with constraint rebalancing on every arrival and
// completion.
func BenchmarkOnlineDynamicSubmissions(b *testing.B) {
	pf := ptgsched.Rennes()
	arrivals := ptgsched.GenerateWorkload(ptgsched.WorkloadSpec{
		Family:  ptgsched.FamilyRandom,
		Count:   8,
		Process: ptgsched.PoissonArrivals,
		Rate:    0.25,
	}, rand.New(rand.NewSource(23)))
	opts := ptgsched.OnlineOptions{Strategy: ptgsched.WPS(ptgsched.Work, 0.7)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ptgsched.ScheduleOnline(pf, arrivals, opts)
		if res.Makespan <= 0 {
			b.Fatal("empty online schedule")
		}
	}
}

// BenchmarkPipelineStages isolates the cost of each stage of the paper's
// pipeline on one 10-PTG batch.
func BenchmarkPipelineStages(b *testing.B) {
	pf := ptgsched.Rennes()
	graphs := benchBatch(10, 19)
	sched := ptgsched.NewScheduler(pf)
	b.Run("full-pipeline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sched.Schedule(graphs, ptgsched.WPS(ptgsched.Width, 0.5)).GlobalMakespan() <= 0 {
				b.Fatal("empty schedule")
			}
		}
	})
}

// BenchmarkCampaignStoreAppend measures the durable store's per-point
// checkpoint overhead: one validated, JSON-marshaled, single-write append
// of a realistic Fig. 3-shaped result record (8 strategies) to an O_APPEND
// segment. PERFORMANCE.md quotes this number against the cost of computing
// a point to show the checkpoint tax of `ptgbench -campaign -store`.
func BenchmarkCampaignStoreAppend(b *testing.B) {
	spec, err := ptgsched.ParseCampaignSpec([]byte(
		`{"name":"bench","seed":1,"reps":12500,"nptgs":[2],"platforms":["lille"],"families":[{"family":"strassen"}]}`))
	if err != nil {
		b.Fatal(err)
	}
	e, err := ptgsched.ExpandCampaign(spec)
	if err != nil {
		b.Fatal(err)
	}
	// One measured record, re-stamped per point: the write cost depends on
	// the line's shape (8 strategy columns), not on which point it is.
	proto := e.RunPoint(e.PointAt(0))
	proto.Unfairness = make([]float64, 8)
	proto.Makespan = make([]float64, 8)
	proto.Rel = make([]float64, 8)
	for i := range proto.Makespan {
		proto.Unfairness[i] = 0.123456789 + float64(i)
		proto.Makespan[i] = 1234.56789 + float64(i)
		proto.Rel[i] = 1.0123456789 + float64(i)
	}

	points := e.NumPoints()
	var st *ptgsched.CampaignStore
	dir := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%points == 0 {
			b.StopTimer()
			if st != nil {
				st.Close()
			}
			dir++
			st, err = ptgsched.CreateCampaignStore(
				filepath.Join(b.TempDir(), fmt.Sprintf("store%d", dir)), e, 4)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		r := proto
		r.Index = i % points
		if err := st.Append(r); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st != nil {
		st.Close()
	}
}
