package mapping_test

// Differential golden test: the optimized incremental mapper must produce
// bit-identical schedules to the seed implementation. seedMap below is a
// line-for-line copy of the seed's Map (per-candidate availability
// copy-and-sort, per-placement stable sort, map-of-maps predecessor counts,
// closure-built data-ready functions), kept as the reference oracle.

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ptgsched/internal/alloc"
	"ptgsched/internal/cost"
	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/mapping"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
)

// seedPlacement mirrors mapping.Placement for the reference mapper.
type seedPlacement struct {
	app     int
	task    *dag.Task
	cluster *platform.Cluster
	procs   []int
	start   float64
	end     float64
}

type seedTaskRef struct {
	app  int
	task *dag.Task
}

type seedCandidate struct {
	cluster *platform.Cluster
	procs   int
	start   float64
	end     float64
}

type seedCompletion struct {
	ref seedTaskRef
	end float64
}

type seedCompletionHeap []seedCompletion

func (h seedCompletionHeap) Len() int           { return len(h) }
func (h seedCompletionHeap) Less(i, j int) bool { return h[i].end < h[j].end }
func (h seedCompletionHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *seedCompletionHeap) Push(x any)        { *h = append(*h, x.(seedCompletion)) }
func (h *seedCompletionHeap) Pop() any {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}

type seedMapper struct {
	pf     *platform.Platform
	apps   []*alloc.Allocation
	opts   mapping.Options
	avail  [][]float64
	bl     [][]float64
	placed map[*dag.Task]*seedPlacement
	out    []*seedPlacement
}

// seedMap is the seed implementation of mapping.Map.
func seedMap(pf *platform.Platform, apps []*alloc.Allocation, opts mapping.Options) []*seedPlacement {
	m := &seedMapper{
		pf:     pf,
		apps:   apps,
		opts:   opts,
		placed: make(map[*dag.Task]*seedPlacement),
	}
	m.avail = make([][]float64, len(pf.Clusters))
	for k, c := range pf.Clusters {
		m.avail[k] = make([]float64, c.Procs)
	}
	m.bl = make([][]float64, len(apps))
	for i, a := range apps {
		m.bl[i] = a.Graph.BottomLevels(a.TimeOf)
	}
	switch opts.Ordering {
	case mapping.ReadyTasks:
		m.runReady()
	case mapping.Global:
		m.runGlobal()
	default:
		panic("seedMap: unknown ordering")
	}
	return m.out
}

func (m *seedMapper) less(a, b seedTaskRef) bool {
	ba, bb := m.bl[a.app][a.task.ID], m.bl[b.app][b.task.ID]
	if ba != bb {
		return ba > bb
	}
	if a.app != b.app {
		return a.app < b.app
	}
	return a.task.ID < b.task.ID
}

func (m *seedMapper) bestOnCluster(app int, t *dag.Task, c *platform.Cluster, dataReady float64) seedCandidate {
	a := m.apps[app]
	want := alloc.Translate(a.Procs[t.ID], a.Ref, c)

	free := append([]float64(nil), m.avail[c.Index]...)
	sort.Float64s(free)

	eval := func(q int) (start, end float64) {
		start = math.Max(dataReady, free[q-1])
		return start, start + cost.TaskTime(t, c.Speed, q)
	}

	best := seedCandidate{cluster: c, procs: want}
	best.start, best.end = eval(want)
	if m.opts.NoPacking {
		return best
	}
	for q := want - 1; q >= 1; q-- {
		start, end := eval(q)
		if start >= best.start && q != want {
			break
		}
		if start < best.start && end <= best.end {
			if end < best.end || start < best.start {
				best = seedCandidate{cluster: c, procs: q, start: start, end: end}
			}
		}
	}
	return best
}

func seedBetter(a, b seedCandidate) bool {
	const tol = 1e-12
	if math.Abs(a.end-b.end) > tol {
		return a.end < b.end
	}
	if math.Abs(a.start-b.start) > tol {
		return a.start < b.start
	}
	if a.procs != b.procs {
		return a.procs < b.procs
	}
	return a.cluster.Index < b.cluster.Index
}

func (m *seedMapper) place(app int, t *dag.Task, dataReadyAt func(*platform.Cluster) float64) *seedPlacement {
	var best seedCandidate
	found := false
	for _, c := range m.pf.Clusters {
		cand := m.bestOnCluster(app, t, c, dataReadyAt(c))
		if !found || seedBetter(cand, best) {
			best = cand
			found = true
		}
	}
	if !found {
		panic("seedMap: no cluster available")
	}

	k := best.cluster.Index
	idx := make([]int, len(m.avail[k]))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return m.avail[k][idx[i]] < m.avail[k][idx[j]] })
	procs := append([]int(nil), idx[:best.procs]...)
	sort.Ints(procs)
	for _, i := range procs {
		m.avail[k][i] = best.end
	}

	p := &seedPlacement{app: app, task: t, cluster: best.cluster, procs: procs, start: best.start, end: best.end}
	m.out = append(m.out, p)
	m.placed[t] = p
	return p
}

func (m *seedMapper) dataReadyFunc(t *dag.Task) func(*platform.Cluster) float64 {
	type feed struct {
		end   float64
		from  *platform.Cluster
		bytes float64
	}
	feeds := make([]feed, 0, len(t.In()))
	for _, e := range t.In() {
		p := m.placed[e.From]
		if p == nil {
			panic(fmt.Sprintf("seedMap: predecessor %q not yet placed", e.From.Name))
		}
		feeds = append(feeds, feed{end: p.end, from: p.cluster, bytes: e.Bytes})
	}
	return func(c *platform.Cluster) float64 {
		ready := 0.0
		for _, f := range feeds {
			at := f.end + m.pf.TransferTime(f.from, c, f.bytes)
			if at > ready {
				ready = at
			}
		}
		return ready
	}
}

func (m *seedMapper) runReady() {
	remainingPreds := make([]map[*dag.Task]int, len(m.apps))
	total := 0
	for i, a := range m.apps {
		remainingPreds[i] = make(map[*dag.Task]int, len(a.Graph.Tasks))
		for _, t := range a.Graph.Tasks {
			remainingPreds[i][t] = len(t.In())
		}
		total += len(a.Graph.Tasks)
	}

	var completions seedCompletionHeap
	var ready []seedTaskRef
	for i, a := range m.apps {
		for _, t := range a.Graph.Tasks {
			if len(t.In()) == 0 {
				ready = append(ready, seedTaskRef{i, t})
			}
		}
	}

	release := func(c seedCompletion) {
		for _, e := range c.ref.task.Out() {
			succ := e.To
			remainingPreds[c.ref.app][succ]--
			if remainingPreds[c.ref.app][succ] == 0 {
				ready = append(ready, seedTaskRef{c.ref.app, succ})
			}
		}
	}

	mapped := 0
	for mapped < total {
		if len(ready) == 0 {
			if completions.Len() == 0 {
				panic("seedMap: no ready tasks and no pending completions")
			}
			c := heap.Pop(&completions).(seedCompletion)
			release(c)
			for completions.Len() > 0 && completions[0].end == c.end {
				release(heap.Pop(&completions).(seedCompletion))
			}
			continue
		}
		sort.Slice(ready, func(i, j int) bool { return m.less(ready[i], ready[j]) })
		for _, ref := range ready {
			p := m.place(ref.app, ref.task, m.dataReadyFunc(ref.task))
			heap.Push(&completions, seedCompletion{ref: ref, end: p.end})
			mapped++
		}
		ready = ready[:0]
	}
}

func (m *seedMapper) runGlobal() {
	var all []seedTaskRef
	for i, a := range m.apps {
		for _, t := range a.Graph.Tasks {
			all = append(all, seedTaskRef{i, t})
		}
	}
	sort.Slice(all, func(i, j int) bool { return m.less(all[i], all[j]) })
	for _, ref := range all {
		m.place(ref.app, ref.task, m.dataReadyFunc(ref.task))
	}
}

// allStrategies returns the paper's full strategy set: S, ES, and the
// proportional / weighted-proportional variants on all three
// characteristics (8 strategies).
func allStrategies() []strategy.Strategy {
	return []strategy.Strategy{
		strategy.S(),
		strategy.ES(),
		strategy.PS(strategy.CriticalPath),
		strategy.PS(strategy.Width),
		strategy.PS(strategy.Work),
		strategy.WPS(strategy.CriticalPath, 0.9),
		strategy.WPS(strategy.Width, 0.5),
		strategy.WPS(strategy.Work, 0.7),
	}
}

const diffTol = 1e-12

// TestDifferentialMapperGolden runs the optimized mapper and the seed
// reference over ~50 seeded random batches — mixed Random/FFT/Strassen
// PTGs on all four Grid'5000 sites, all 8 strategies, both orderings,
// packing on and off — and asserts identical placements.
func TestDifferentialMapperGolden(t *testing.T) {
	sites := platform.Grid5000Sites()
	strategies := allStrategies()
	const batches = 50
	for batch := 0; batch < batches; batch++ {
		r := rand.New(rand.NewSource(int64(4200 + batch)))
		pf := sites[batch%len(sites)]
		n := 2 + r.Intn(3)
		graphs := make([]*dag.Graph, n)
		for i := range graphs {
			graphs[i] = daggen.Generate(daggen.Family(r.Intn(3)), r)
		}
		strat := strategies[batch%len(strategies)]
		opts := mapping.Options{
			NoPacking: batch%3 == 1,
		}
		if batch%5 == 4 {
			opts.Ordering = mapping.Global
		}

		ref := pf.ReferenceCluster()
		betas := strat.Betas(graphs, ref)
		apps := make([]*alloc.Allocation, n)
		for i, g := range graphs {
			apps[i] = alloc.Compute(g, ref, betas[i], alloc.SCRAPMAX)
		}

		want := seedMap(pf, apps, opts)
		got := mapping.Map(pf, apps, opts)

		if len(got.Placements) != len(want) {
			t.Fatalf("batch %d (%v, %v): %d placements, seed has %d",
				batch, strat, opts, len(got.Placements), len(want))
		}
		for i, g := range got.Placements {
			w := want[i]
			if g.Task != w.task || g.App != w.app {
				t.Fatalf("batch %d placement %d: task %q/app %d, seed %q/app %d",
					batch, i, g.Task.Name, g.App, w.task.Name, w.app)
			}
			if g.Cluster != w.cluster {
				t.Fatalf("batch %d %q: cluster %s, seed %s", batch, g.Task.Name,
					g.Cluster.Name, w.cluster.Name)
			}
			if len(g.Procs) != len(w.procs) {
				t.Fatalf("batch %d %q: %d procs, seed %d", batch, g.Task.Name,
					len(g.Procs), len(w.procs))
			}
			for j := range g.Procs {
				if g.Procs[j] != w.procs[j] {
					t.Fatalf("batch %d %q: procs %v, seed %v", batch, g.Task.Name,
						g.Procs, w.procs)
				}
			}
			if math.Abs(g.Start-w.start) > diffTol || math.Abs(g.End-w.end) > diffTol {
				t.Fatalf("batch %d %q: [%g,%g], seed [%g,%g]", batch, g.Task.Name,
					g.Start, g.End, w.start, w.end)
			}
		}
	}
}
