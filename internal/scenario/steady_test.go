package scenario

import "testing"

// A sweep slot's steady state on points shaped like the Fig. 3 protocol on
// a pinned grid (10-, 20- and 50-task random PTGs, 2/6/10 of them, the four
// sites, the eight paper strategies): each point is computed on a warm
// slot scratch, which takes back the point's graphs and schedules when it
// ends. What a point still allocates is its result, its random source, the
// allocation steps its graphs' traces record, and the adjacency lists and
// traces a point grows when it outgrows the ones before it. Before graphs
// and schedules were recycled this test counted ≈ 5.5k objects per point
// (the benchmark's campaign_static ≈ 5.47k per op); then ≈ 140, and 30
// since the trace store recycles its allocations and the β vectors go
// into the scratch. The ceiling is twice that.
func TestStaticPointAllocsOnWarmScratch(t *testing.T) {
	e := mustExpand(t, mustParse(t, `{"name":"static","seed":301,"reps":1,"nptgs":[2,6,10],
		"families":[{"family":"random","tasks":[10,20,50],"widths":[0.5],"regularities":[0.8],"densities":[0.8],"jumps":[2]}]}`))
	// Every fifth point mixes cells, batch sizes and sites.
	var points []Point
	for i := 0; i < e.NumPoints(); i += 5 {
		points = append(points, e.PointAt(i))
	}
	sc := NewScratch()
	for _, p := range points {
		e.ComputePointScratch(sc, p, nil)
	}
	next := 0
	allocs := testing.AllocsPerRun(len(points), func() {
		e.ComputePointScratch(sc, points[next%len(points)], nil)
		next++
	})
	const ceiling = 60
	t.Logf("%.0f allocations per point", allocs)
	if allocs > ceiling {
		t.Errorf("a point on a warm slot scratch allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}
