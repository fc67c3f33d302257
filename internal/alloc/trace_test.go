package alloc

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
)

// tracedOracle drives one Traces store and compares every allocation it
// returns with the oracle's, which it computes once per distinct
// (graph, reference, β, procedure).
type tracedOracle struct {
	t      testing.TB
	store  Traces
	oracle map[oracleKey][]int
	// replays counts the calls that took at least one step over from a
	// trace.
	replays int
}

type oracleKey struct {
	g    *dag.Graph
	rf   platform.Reference
	beta float64
	proc Procedure
}

func (o *tracedOracle) compute(what string, g *dag.Graph, rf platform.Reference, beta float64, proc Procedure) {
	o.t.Helper()
	key := oracleKey{g, rf, beta, proc}
	want, ok := o.oracle[key]
	if !ok {
		if o.oracle == nil {
			o.oracle = make(map[oracleKey][]int)
		}
		want = oracleCompute(g, rf, beta, proc).Procs
		o.oracle[key] = want
	}
	before := o.store.Replayed
	got := o.store.Compute(g, rf, beta, proc)
	if o.store.Replayed > before {
		o.replays++
	}
	if got.Graph != g || got.Ref != rf || got.Beta != beta {
		o.t.Fatalf("%s: allocation labelled (%p, %v, %v), asked for (%p, %v, %v)", what, got.Graph, got.Ref, got.Beta, g, rf, beta)
	}
	if !slices.Equal(got.Procs, want) {
		o.t.Fatalf("%s (%d tasks, ref %d×%g, beta %v, %v) through a trace:\n got %v\nwant %v",
			what, len(g.Tasks), rf.Procs, rf.Speed, beta, proc, got.Procs, want)
	}
}

// TestTraceMatchesOracle drives one store per graph through β sequences —
// ascending, descending, random with exact repeats, and the β the paper's
// strategies give the graph in batches of 2, 6 and 10 PTGs — under both
// procedures, on every Grid'5000 site and application family, while the
// reference alternates between the site's own and a degraded one (a traced
// graph keeps one trace per reference), and requires the oracle's Procs
// after every call.
func TestTraceMatchesOracle(t *testing.T) {
	ladder := []float64{0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1}
	traced := 3 // graphs traced per cell: one of each batch size's newcomers
	if testing.Short() {
		traced = 1
	}
	var replays atomic.Int64
	t.Run("cells", func(t *testing.T) {
		for family := daggen.FamilyRandom; family <= daggen.FamilyStrassen; family++ {
			for _, pf := range platform.Grid5000Sites() {
				t.Run(fmt.Sprintf("%v/%s", family, pf.Name), func(t *testing.T) {
					t.Parallel()
					r := rand.New(rand.NewSource(int64(1900 + len(pf.Name) + 10*int(family))))
					graphs := make([]*dag.Graph, 10)
					for i := range graphs {
						graphs[i] = daggen.Generate(family, r)
					}
					a := pf.ReferenceCluster()
					b := platform.Reference{Procs: a.Procs/2 + 1, Speed: a.Speed * 0.9}
					refs := [2]platform.Reference{a, b}

					for _, gi := range []int{0, 3, 8}[:traced] {
						g := graphs[gi]
						// The graph's β under every strategy in every batch
						// it belongs to, per reference.
						var shares [2][]float64
						for k, rf := range refs {
							for _, size := range []int{2, 6, 10} {
								if gi >= size {
									continue
								}
								for _, strat := range strategy.PaperSet(family) {
									shares[k] = append(shares[k], strat.Betas(graphs[:size], rf)[gi])
								}
							}
						}
						for _, proc := range procedures {
							o := &tracedOracle{t: t}
							run := func(what string, k int, betas []float64) {
								for _, beta := range betas {
									o.compute(fmt.Sprintf("graph %d, %s", gi, what), g, refs[k], beta, proc)
								}
							}
							down := slices.Clone(ladder)
							slices.Reverse(down)
							run("ascending on A", 0, ladder)
							run("ascending on B", 1, ladder)
							run("descending on A", 0, down)
							run("descending on B", 1, down)
							for i := 0; i < 24; i++ {
								// Exact repeats: draws from the ladder and
								// from a few odd values, the reference
								// changing at every call.
								beta := ladder[r.Intn(len(ladder))]
								if r.Intn(3) == 0 {
									beta = []float64{0.013, 0.27, 0.6180339887, 0.99}[r.Intn(4)]
								}
								run("random", i%2, []float64{beta})
							}
							run("strategies on A", 0, shares[0])
							run("strategies on B", 1, shares[1])
							run("strategies on A again", 0, shares[0])
							if o.store.Replayed == 0 || o.store.Grown == 0 {
								t.Errorf("graph %d under %v: %d steps replayed, %d grown: the sequences do not exercise the trace",
									gi, proc, o.store.Replayed, o.store.Grown)
							}
							replays.Add(int64(o.replays))
						}
					}
				})
			}
		}
	})
	t.Logf("%d replayed allocations identical to the oracle's", replays.Load())
	if !testing.Short() && replays.Load() < 2000 {
		t.Errorf("only %d allocations replayed a trace, want at least 2000", replays.Load())
	}
}

// A graph that gained a task or an edge since its trace was recorded is
// grown from nothing again.
func TestTraceDroppedWhenGraphGrows(t *testing.T) {
	for _, proc := range procedures {
		g := forkJoin(8, 40, 0.1)
		rf := ref(64, 3)
		o := &tracedOracle{t: t}
		o.compute("before", g, rf, 1, proc)
		o.compute("before", g, rf, 0.3, proc)

		extra := g.AddTask("appended", 4e6, 500, 0.05)
		o.oracle = nil // the oracle's answers were for the smaller graph too
		replayed := o.store.Replayed
		o.compute("after AddTask", g, rf, 0.3, proc)
		if o.store.Replayed != replayed {
			t.Errorf("%v: %d steps of the smaller graph replayed after AddTask", proc, o.store.Replayed-replayed)
		}
		o.compute("after AddTask", g, rf, 1, proc)

		// An edge alone changes no task count, yet moves the critical path.
		g.MustAddEdge(g.Tasks[1], extra, 1)
		o.oracle = nil
		replayed = o.store.Replayed
		o.compute("after AddEdge", g, rf, 1, proc)
		if o.store.Replayed != replayed {
			t.Errorf("%v: %d steps of the graph without the edge replayed after AddEdge", proc, o.store.Replayed-replayed)
		}
		o.compute("after AddEdge", g, rf, 0.3, proc)
		if o.store.Replayed == replayed {
			t.Errorf("%v: the regrown trace is not replayed", proc)
		}
	}
}

// A graph reset and regenerated in place under a live store — the same
// object, the same task and edge counts, other costs: what a worker's
// pooled graph is between two units of work if nothing forgets its traces
// — is a new graph to the store. Every β it is computed under, including
// ones computed on its earlier content, equals a fresh Compute.
func TestTracesNeverReplayRegeneratedGraph(t *testing.T) {
	rf := ref(64, 3)
	for _, proc := range procedures {
		for seed := int64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			cfg := daggen.RandomConfig{Tasks: 20, Width: 0.5, Regularity: 1, Density: 0.8, Jump: 2, Complexity: daggen.Mixed}
			g := daggen.Random(cfg, r)
			var s Traces
			for _, beta := range []float64{1, 0.4, 0.15} {
				s.Compute(g, rf, beta, proc)
			}
			tasks, edges := len(g.Tasks), len(g.Edges)
			// Regenerate until the content has the old shape with new costs.
			for {
				daggen.RandomInto(g, cfg, r)
				if len(g.Tasks) == tasks && len(g.Edges) == edges {
					break
				}
			}
			for _, beta := range []float64{0.15, 1, 0.4, 0.7} {
				got, want := s.Compute(g, rf, beta, proc), Compute(g, rf, beta, proc)
				if !slices.Equal(got.Procs, want.Procs) {
					t.Fatalf("%v seed %d β=%g: the store served the earlier content's allocation\n%v\nfresh\n%v",
						proc, seed, beta, got.Procs, want.Procs)
				}
			}
		}
	}
}

// SCRAP-MAX returns one processor per task without entering the loop when
// a level is over budget at the minimal allocation. Such a run has no steps:
// it must neither consume a trace nor leave one that a larger β would take
// for a finished run.
func TestTraceUsableAfterOverBudgetEarlyOut(t *testing.T) {
	g, rf := forkJoin(30, 40, 0.1), ref(100, 3) // 30 one-processor tasks: over budget below β = 0.3
	o := &tracedOracle{t: t}
	o.compute("early-out on an empty trace", g, rf, 0.2, SCRAPMAX)
	if o.store.Grown != 0 {
		t.Fatalf("%d steps grown with a level over budget at one processor per task", o.store.Grown)
	}
	o.compute("first run through the loop", g, rf, 0.5, SCRAPMAX)
	grown := o.store.Grown
	if grown == 0 {
		t.Fatal("β = 0.5 grew nothing: the case does not leave the early-out")
	}
	o.compute("early-out beside a trace", g, rf, 0.2, SCRAPMAX)
	o.compute("early-out beside a trace", g, rf, 1e-9, SCRAPMAX)
	if o.store.Grown != grown || o.store.Replayed != 0 {
		t.Fatalf("an early-out run grew %d and replayed %d steps", o.store.Grown-grown, o.store.Replayed)
	}
	o.compute("smaller β after the early-outs", g, rf, 0.31, SCRAPMAX)
	o.compute("larger β after the early-outs", g, rf, 1, SCRAPMAX)
	o.compute("full-length replay", g, rf, 1, SCRAPMAX)
	if o.store.Replayed == 0 {
		t.Fatal("the trace was never replayed")
	}
}

// Forget ends every trace: a graph whose costs were edited afterwards is
// grown from nothing, in recycled step storage.
func TestTracesForget(t *testing.T) {
	g, rf := chainGraph(12, 40, 0.05), ref(120, 3.5)
	for _, proc := range procedures {
		o := &tracedOracle{t: t}
		o.compute("before", g, rf, 1, proc)
		o.compute("before", g, rf, 0.1, proc)
		o.store.Forget()
		o.oracle = nil
		for _, task := range g.Tasks {
			task.SeqGFlop *= 1.7
		}
		replayed := o.store.Replayed
		o.compute("after Forget", g, rf, 0.1, proc)
		if o.store.Replayed != replayed {
			t.Errorf("%v: %d steps replayed after Forget", proc, o.store.Replayed-replayed)
		}
		o.compute("after Forget", g, rf, 1, proc)
		o.compute("after Forget", g, rf, 0.1, proc)
	}
}

// A β already computed on a key returns the allocation computed then —
// the same *Allocation, no step taken or grown. A different β, reference or
// procedure is not a repeat; a graph that gained a task or an edge, and a
// forgotten store, are allocated afresh.
func TestTracesAnswerRepeats(t *testing.T) {
	for _, proc := range procedures {
		g, rf, other := forkJoin(8, 40, 0.1), ref(64, 3), ref(48, 2.5)
		var s Traces
		oracle := func(what string, a *Allocation, g *dag.Graph, rf platform.Reference, beta float64, proc Procedure) {
			t.Helper()
			if want := oracleCompute(g, rf, beta, proc).Procs; !slices.Equal(a.Procs, want) {
				t.Fatalf("%v, %s: got %v, want %v", proc, what, a.Procs, want)
			}
		}
		first := s.Compute(g, rf, 0.3, proc)
		oracle("first run", first, g, rf, 0.3, proc)
		replayed, grown := s.Replayed, s.Grown
		if again := s.Compute(g, rf, 0.3, proc); again != first {
			t.Fatalf("%v: an exact repeat was computed again", proc)
		}
		if s.Repeated != 1 || s.Replayed != replayed || s.Grown != grown {
			t.Fatalf("%v: an exact repeat counted %d repeats, %d steps replayed, %d grown",
				proc, s.Repeated, s.Replayed-replayed, s.Grown-grown)
		}

		for _, c := range []struct {
			what string
			rf   platform.Reference
			beta float64
			proc Procedure
		}{
			{"another β", rf, 0.5, proc},
			{"another reference", other, 0.3, proc},
			{"another procedure", rf, 0.3, 1 - proc},
		} {
			a := s.Compute(g, c.rf, c.beta, c.proc)
			if a == first {
				t.Fatalf("%v: %s served the first allocation", proc, c.what)
			}
			oracle(c.what, a, g, c.rf, c.beta, c.proc)
		}
		if s.Compute(g, rf, 0.3, proc) != first {
			t.Fatalf("%v: the first allocation was lost to the other keys", proc)
		}

		g.AddTask("appended", 4e6, 500, 0.05)
		grownTask := s.Compute(g, rf, 0.3, proc)
		if grownTask == first || len(grownTask.Procs) != len(g.Tasks) {
			t.Fatalf("%v: an allocation of %d tasks served after AddTask", proc, len(first.Procs))
		}
		oracle("after AddTask", grownTask, g, rf, 0.3, proc)

		g.MustAddEdge(g.Tasks[1], g.Tasks[len(g.Tasks)-1], 1)
		grownEdge := s.Compute(g, rf, 0.3, proc)
		if grownEdge == grownTask {
			t.Fatalf("%v: the allocation without the edge served after AddEdge", proc)
		}
		oracle("after AddEdge", grownEdge, g, rf, 0.3, proc)

		// Forget recycles the allocations' storage, so the one computed
		// next may sit where grownEdge did; what proves it is not served
		// again is that it is grown in full, as a new store grows it.
		s.Forget()
		var fresh Traces
		fresh.Compute(g, rf, 0.3, proc)
		grown, replayed, repeated := s.Grown, s.Replayed, s.Repeated
		a := s.Compute(g, rf, 0.3, proc)
		if s.Grown-grown != fresh.Grown || s.Replayed != replayed || s.Repeated != repeated {
			t.Fatalf("%v: an allocation survived Forget: %d steps grown (a new store grows %d), %d replayed, %d calls repeated",
				proc, s.Grown-grown, fresh.Grown, s.Replayed-replayed, s.Repeated-repeated)
		}
		if fresh.Grown == 0 {
			t.Fatalf("%v: the run grows no step: the check proves nothing", proc)
		}
		oracle("after Forget", a, g, rf, 0.3, proc)
	}
}

// The allocation the package-level Compute returns is the caller's: no
// later call on any store — on the same graph, through Forget and the
// storage it recycles — changes it.
func TestComputeResultOutlivesTraces(t *testing.T) {
	for _, proc := range procedures {
		g, rf := forkJoin(8, 40, 0.1), ref(64, 3)
		kept := Compute(g, rf, 0.4, proc)
		want := *kept
		want.Procs = slices.Clone(kept.Procs)
		var s Traces
		for round := 0; round < 3; round++ {
			for _, beta := range []float64{1, 0.4, 0.2} {
				s.Compute(g, rf, beta, proc)
			}
			s.Forget()
		}
		Compute(g, rf, 0.2, proc)
		if kept.Graph != want.Graph || kept.Ref != want.Ref || kept.Beta != want.Beta || !slices.Equal(kept.Procs, want.Procs) {
			t.Fatalf("%v: the allocation Compute returned changed to %+v, was %+v", proc, *kept, want)
		}
	}
}

// BenchmarkComputeReplay walks one trace down the β ladder 1, 1/2, … 1/10
// and back up on the campaign grid's 50-task PTG — the shares an
// equal-share online run moves an application through as others arrive and
// leave — and reports, per ladder, the steps taken over from the trace and
// the steps grown. BenchmarkCompute's incremental cases are the same calls
// without a trace.
func BenchmarkComputeReplay(b *testing.B) {
	g := gridPTG(50)
	rf := platform.Rennes().ReferenceCluster()
	var ladder []float64
	for k := 1; k <= 10; k++ {
		ladder = append(ladder, 1/float64(k))
	}
	for k := 9; k >= 1; k-- {
		ladder = append(ladder, 1/float64(k))
	}
	for _, proc := range procedures {
		b.Run(proc.String(), func(b *testing.B) {
			b.ReportAllocs()
			var store Traces
			for i := 0; i < b.N; i++ {
				for _, beta := range ladder {
					store.Compute(g, rf, beta, proc)
				}
				store.Forget()
			}
			b.ReportMetric(float64(store.Grown)/float64(b.N), "steps_grown/op")
			b.ReportMetric(float64(store.Replayed)/float64(b.N), "steps_replayed/op")
		})
	}
}
