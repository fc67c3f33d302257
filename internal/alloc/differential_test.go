package alloc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
)

var procedures = []Procedure{SCRAP, SCRAPMAX}

// assertMatchesOracle runs Compute and the oracle on the same input and
// requires identical Procs vectors.
func assertMatchesOracle(t testing.TB, what string, g *dag.Graph, rf platform.Reference, beta float64, proc Procedure) {
	t.Helper()
	got, want := Compute(g, rf, beta, proc), oracleCompute(g, rf, beta, proc)
	for id := range want.Procs {
		if got.Procs[id] != want.Procs[id] {
			t.Fatalf("%s (%d tasks, ref %d×%g, beta %v, %v): task %d allocated %d processors, oracle %d\n got %v\nwant %v",
				what, len(g.Tasks), rf.Procs, rf.Speed, beta, proc, id, got.Procs[id], want.Procs[id], got.Procs, want.Procs)
		}
	}
}

// TestComputeMatchesOracle replays the 50-batch corpus of the mapper's
// differential test (seeds 4200…4249, 2–4 PTGs per batch), once per
// application family, on every Grid'5000 site under every paper strategy
// and both procedures, and requires the incremental loop to reproduce the
// oracle's allocation of every PTG. Strategies that resolve a PTG to a β
// already compared are skipped: the allocation depends on (graph,
// reference, β, procedure) only. The (family, site) cells run in parallel,
// each on graphs of its own — a graph's analyses belong to one goroutine.
func TestComputeMatchesOracle(t *testing.T) {
	batches := 50
	if testing.Short() {
		batches = 8
	}
	for family := daggen.FamilyRandom; family <= daggen.FamilyStrassen; family++ {
		for _, pf := range platform.Grid5000Sites() {
			t.Run(fmt.Sprintf("%v/%s", family, pf.Name), func(t *testing.T) {
				t.Parallel()
				rf := pf.ReferenceCluster()
				compared := 0
				for batch := 0; batch < batches; batch++ {
					r := rand.New(rand.NewSource(int64(4200 + batch)))
					graphs := make([]*dag.Graph, 2+r.Intn(3))
					for i := range graphs {
						graphs[i] = daggen.Generate(family, r)
					}
					type key struct {
						graph int
						beta  float64
					}
					seen := make(map[key]bool)
					for _, strat := range strategy.PaperSet(family) {
						for i, beta := range strat.Betas(graphs, rf) {
							if seen[key{i, beta}] {
								continue
							}
							seen[key{i, beta}] = true
							for _, proc := range procedures {
								assertMatchesOracle(t, fmt.Sprintf("batch %d graph %d under %v", batch, i, strat), graphs[i], rf, beta, proc)
								compared++
							}
						}
					}
				}
				t.Logf("%d allocations identical to the oracle's", compared)
			})
		}
	}
}

// chainGraph is n tasks in sequence; forkJoin is an entry, w parallel
// tasks and an exit.
func chainGraph(n int, work, alpha float64) *dag.Graph {
	g := dag.New("chain")
	var prev *dag.Task
	for i := 0; i < n; i++ {
		t := g.AddTask(fmt.Sprintf("c%d", i), 4e6, work*float64(1+i%3), alpha)
		if prev != nil {
			g.MustAddEdge(prev, t, 1)
		}
		prev = t
	}
	return g
}

func forkJoin(w int, work, alpha float64) *dag.Graph {
	g := dag.New("forkjoin")
	entry := g.AddTask("entry", 4e6, work, alpha)
	exit := g.AddTask("exit", 4e6, work, alpha)
	for i := 0; i < w; i++ {
		t := g.AddTask(fmt.Sprintf("w%d", i), 4e6, work*float64(1+i%4), alpha)
		g.MustAddEdge(entry, t, 1)
		g.MustAddEdge(t, exit, 1)
	}
	return g
}

// TestComputeMatchesOracleDegenerate covers the shapes and parameters where
// the growth loop ends, or never starts, for a reason other than the
// budget running out mid-way.
func TestComputeMatchesOracleDegenerate(t *testing.T) {
	single := dag.New("single")
	single.AddTask("only", 4e6, 50, 0.1)
	zeroWork := chainGraph(4, 0, 0.1)
	twoEntries := dag.New("two-entries")
	x := twoEntries.AddTask("x", 4e6, 30, 0.05)
	y := twoEntries.AddTask("y", 4e6, 90, 0.2)
	z := twoEntries.AddTask("z", 4e6, 10, 0)
	twoEntries.MustAddEdge(x, z, 1)
	twoEntries.MustAddEdge(y, z, 1)

	cases := []struct {
		name  string
		g     *dag.Graph
		rf    platform.Reference
		betas []float64
	}{
		{"single task", single, ref(64, 3), []float64{1e-6, 0.03, 0.5, 1}},
		{"all alpha = 1: zero marginal gain", forkJoin(6, 40, 1), ref(64, 3), []float64{0.1, 1}},
		{"ref.Procs == 1", forkJoin(6, 40, 0.1), ref(1, 3), []float64{0.5, 1}},
		{"ref.Procs == 2", chainGraph(5, 40, 0.1), ref(2, 3), []float64{0.5, 1}},
		{"one processor per task already over a level's budget", forkJoin(30, 40, 0.1), ref(100, 3), []float64{1e-9, 0.05, 0.2, 0.31}},
		{"chain", chainGraph(12, 40, 0.05), ref(120, 3.5), []float64{0.01, 0.1, 0.5, 1}},
		{"chain of perfectly parallel tasks", chainGraph(6, 40, 0), ref(40, 2), []float64{0.2, 1}},
		{"wide fork-join", forkJoin(48, 25, 0.15), ref(229, 3.78), []float64{0.05, 0.25, 0.6, 1}},
		{"zero-work tasks", zeroWork, ref(16, 3), []float64{0.5, 1}},
		{"two entry tasks", twoEntries, ref(50, 3), []float64{0.04, 0.3, 1}},
	}
	for _, c := range cases {
		for _, beta := range c.betas {
			for _, proc := range procedures {
				assertMatchesOracle(t, c.name, c.g, c.rf, beta, proc)
			}
		}
	}

	// The cases above must include what they claim to.
	over := Compute(forkJoin(30, 40, 0.1), ref(100, 3), 0.2, SCRAPMAX)
	if power := over.LevelPowers()[1]; power <= 0.2*over.Ref.Power() {
		t.Errorf("30 one-processor tasks draw %g GFlop/s, inside a budget of 20 processors", power)
	}
	for id, p := range over.Procs {
		if p != 1 {
			t.Errorf("task %d grew to %d processors beside an over-budget level", id, p)
		}
	}
	for id, p := range Compute(forkJoin(6, 40, 1), ref(64, 3), 1, SCRAP).Procs {
		if p != 1 {
			t.Errorf("alpha = 1 task %d grew to %d processors", id, p)
		}
	}
}

// fuzzGraph draws a small DAG with unordered task IDs, a mix of serial,
// perfectly parallel and ordinary tasks, and occasional repeated works (so
// equal marginal gains and equal path lengths occur).
func fuzzGraph(r *rand.Rand) *dag.Graph {
	n := 1 + r.Intn(24)
	g := dag.New("fuzz")
	works := []float64{5, 20, 20, 80, 300}
	for i := 0; i < n; i++ {
		alpha := r.Float64() * 0.3
		switch r.Intn(8) {
		case 0:
			alpha = 0
		case 1:
			alpha = 1
		}
		work := works[r.Intn(len(works))]
		if r.Intn(3) == 0 {
			work = 1 + 400*r.Float64()
		}
		g.AddTask(fmt.Sprintf("t%d", i), 4e6, work, alpha)
	}
	perm := r.Perm(n)
	density := r.Float64() * 0.5
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < density {
				g.MustAddEdge(g.Tasks[perm[i]], g.Tasks[perm[j]], 1)
			}
		}
	}
	return g
}

// FuzzComputeMatchesOracle draws a graph, a reference cluster and a β from
// the fuzzed seed and requires both procedures to reproduce the oracle;
// then the fuzzer's bytes choose a β sequence — two bytes a β, a zero byte
// repeating the previous one — that both procedures walk through one trace
// each, the oracle's allocation required after every call.
func FuzzComputeMatchesOracle(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		seq := make([]byte, 2*(seed%7))
		rand.New(rand.NewSource(seed)).Read(seq)
		f.Add(seed, uint16(seed*4099), uint8(seed*37), seq)
	}
	f.Fuzz(func(t *testing.T, seed int64, betaRaw uint16, procsRaw uint8, seq []byte) {
		r := rand.New(rand.NewSource(seed))
		g := fuzzGraph(r)
		share := func(raw uint16) float64 { return (float64(raw) + 1) / (math.MaxUint16 + 1) } // (0, 1]
		beta := share(betaRaw)
		rf := ref(1+int(procsRaw), 0.5+4*r.Float64())
		for _, proc := range procedures {
			assertMatchesOracle(t, fmt.Sprintf("seed %d", seed), g, rf, beta, proc)
		}

		betas := []float64{beta}
		for len(seq) > 0 && len(betas) < 12 {
			if seq[0] == 0 || len(seq) == 1 {
				betas, seq = append(betas, betas[len(betas)-1]), seq[1:]
				continue
			}
			betas, seq = append(betas, share(uint16(seq[0])<<8|uint16(seq[1]))), seq[2:]
		}
		for _, proc := range procedures {
			o := &tracedOracle{t: t}
			for i, beta := range betas {
				o.compute(fmt.Sprintf("seed %d, call %d of %v", seed, i, betas), g, rf, beta, proc)
			}
		}
	})
}

// gridPTG is an n-task PTG of the shape the benchmark campaigns pin.
func gridPTG(n int) *dag.Graph {
	return daggen.Random(daggen.RandomConfig{Tasks: n, Width: 0.5, Regularity: 0.8, Density: 0.8, Jump: 2,
		Complexity: daggen.Mixed}, rand.New(rand.NewSource(1)))
}

// BenchmarkCompute times the incremental loop and the oracle on one
// 50-task PTG of the benchmark campaigns' pinned grid, per procedure and β,
// and reports the time per growth step (accepted steps: ΣProcs − tasks);
// then the incremental loop alone at β = 1 along a size axis, 10 to 1,000
// tasks of the same shape — what a step costs must hold at every size the
// repository generates, not only at the one the campaigns run.
func BenchmarkCompute(b *testing.B) {
	rf := platform.Rennes().ReferenceCluster()
	type computeFunc func(*dag.Graph, platform.Reference, float64, Procedure) *Allocation
	run := func(name string, compute computeFunc, g *dag.Graph, beta float64, proc Procedure) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			steps := 0
			for i := 0; i < b.N; i++ {
				steps = -len(g.Tasks)
				for _, p := range compute(g, rf, beta, proc).Procs {
					steps += p
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
		})
	}
	g := gridPTG(50)
	for _, impl := range []struct {
		name    string
		compute computeFunc
	}{{"incremental", Compute}, {"oracle", oracleCompute}} {
		for _, proc := range procedures {
			for _, beta := range []float64{0.1, 0.3, 1} {
				run(fmt.Sprintf("%s/%v/beta=%g", impl.name, proc, beta), impl.compute, g, beta, proc)
			}
		}
	}
	for _, n := range []int{10, 20, 50, 200, 1000} {
		g := gridPTG(n)
		for _, proc := range procedures {
			run(fmt.Sprintf("size/%v/n=%d", proc, n), Compute, g, 1, proc)
		}
	}
}
