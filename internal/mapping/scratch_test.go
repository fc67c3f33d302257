package mapping_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ptgsched/internal/alloc"
	"ptgsched/internal/daggen"
	"ptgsched/internal/mapping"
	"ptgsched/internal/platform"
)

// FuzzScratchMapMatchesMap maps a sequence of batches on one Scratch — each
// batch of its own size, families and β on its own site, under its own
// ordering and packing, with the scratch sometimes released in between —
// and holds every schedule to a fresh Map's, placement by placement: order,
// application, task, cluster, processors, start and end, bit for bit.
func FuzzScratchMapMatchesMap(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(2), uint8(7))
	f.Add(int64(3), uint8(1))
	f.Add(int64(4), uint8(12))
	f.Add(int64(5), uint8(5))
	sites := platform.Grid5000Sites()
	f.Fuzz(func(t *testing.T, seed int64, batches uint8) {
		r := rand.New(rand.NewSource(seed))
		var sc mapping.Scratch
		for b := 0; b < 1+int(batches)%8; b++ {
			pf := sites[r.Intn(len(sites))]
			ref := pf.ReferenceCluster()
			apps := make([]*alloc.Allocation, 1+r.Intn(12))
			for i := range apps {
				g := daggen.Generate(daggen.Family(r.Intn(3)), r)
				apps[i] = alloc.Compute(g, ref, 0.05+0.95*r.Float64(), alloc.SCRAPMAX)
			}
			opts := mapping.Options{Ordering: mapping.Ordering(r.Intn(2)), NoPacking: r.Intn(2) == 0}
			got, want := sc.Map(pf, apps, opts), mapping.Map(pf, apps, opts)
			if len(got.Placements) != len(want.Placements) {
				t.Fatalf("batch %d: %d placements on the scratch, %d fresh", b, len(got.Placements), len(want.Placements))
			}
			for i, p := range got.Placements {
				q := want.Placements[i]
				if p.App != q.App || p.Index != q.Index || p.Task != q.Task || p.Cluster != q.Cluster ||
					!slices.Equal(p.Procs, q.Procs) ||
					math.Float64bits(p.Start) != math.Float64bits(q.Start) || math.Float64bits(p.End) != math.Float64bits(q.End) {
					t.Fatalf("batch %d (%s, %v, packing %v): placement %d is %v on the scratch, %v fresh",
						b, pf.Name, opts.Ordering, !opts.NoPacking, i, p, q)
				}
				if got.PlacementOf(p.Task) != p {
					t.Fatalf("batch %d: placement %d is not indexed by its task", b, i)
				}
			}
			if r.Intn(3) == 0 {
				sc.Release()
			}
		}
	})
}
