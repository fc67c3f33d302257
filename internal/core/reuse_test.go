package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"ptgsched/internal/core"
	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
)

// sameResult requires two scheduling results over the same graphs to agree
// bit for bit: constraints, allocations, placements and simulated times.
func sameResult(t *testing.T, what string, got, want *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Betas, want.Betas) {
		t.Fatalf("%s: betas %v, want %v", what, got.Betas, want.Betas)
	}
	for i, a := range want.Allocations {
		if !reflect.DeepEqual(got.Allocations[i].Procs, a.Procs) {
			t.Fatalf("%s: app %d allocated %v, want %v", what, i, got.Allocations[i].Procs, a.Procs)
		}
	}
	if len(got.Schedule.Placements) != len(want.Schedule.Placements) {
		t.Fatalf("%s: %d placements, want %d", what, len(got.Schedule.Placements), len(want.Schedule.Placements))
	}
	for i, p := range want.Schedule.Placements {
		q := got.Schedule.Placements[i]
		if p.App != q.App || p.Task != q.Task || p.Cluster != q.Cluster ||
			p.Start != q.Start || p.End != q.End || !reflect.DeepEqual(p.Procs, q.Procs) {
			t.Fatalf("%s: placement %d is %v, want %v", what, i, q, p)
		}
	}
	if got.Exec.Makespan != want.Exec.Makespan || !reflect.DeepEqual(got.Exec.AppMakespans, want.Exec.AppMakespans) {
		t.Fatalf("%s: simulated makespans %v (%g), want %v (%g)", what,
			got.Exec.AppMakespans, got.Exec.Makespan, want.Exec.AppMakespans, want.Exec.Makespan)
	}
}

// ScheduleWith on a scratch that already remembers the batch's allocations
// — from the dedicated runs and from every earlier strategy — equals
// Schedule, which starts from nothing.
func TestScheduleWithWarmScratchMatchesSchedule(t *testing.T) {
	for si, pf := range platform.Grid5000Sites() {
		sched := core.New(pf)
		gs := batch(5, int64(40+si))
		sc := core.NewScratch()
		for i, g := range gs {
			if got, want := sched.ScheduleAloneWith(sc, g), sched.ScheduleAlone(g); got != want {
				t.Fatalf("%s: app %d alone: %g on a scratch, %g without", pf.Name, i, got, want)
			}
		}
		for round := 0; round < 2; round++ {
			for _, strat := range strategy.PaperSet(daggen.FamilyRandom) {
				sameResult(t, pf.Name+" "+strat.Name(), sched.ScheduleWith(sc, gs, strat), sched.Schedule(gs, strat))
			}
		}
	}
}

func TestScratchRemembersAllocationsUntilForgotten(t *testing.T) {
	sched := core.New(platform.Lille())
	gs := batch(3, 9)
	sc := core.NewScratch()
	alone := sched.ScheduleWith(sc, gs[:1], strategy.S()).Allocations[0]
	selfish := sched.ScheduleWith(sc, gs, strategy.S()).Allocations[0]
	if selfish != alone {
		t.Error("the selfish strategy recomputed the β = 1 allocation of the dedicated run")
	}
	if shared := sched.ScheduleWith(sc, gs, strategy.ES()).Allocations[0]; shared == alone {
		t.Error("an allocation was served for a different β")
	}
	// The reference cluster is part of what an allocation is remembered
	// for.
	if a := core.New(platform.Nancy()).ScheduleWith(sc, gs, strategy.S()).Allocations[0]; a == alone {
		t.Error("an allocation was served for a different platform")
	}
	sc.Release()
	after := scheduledAfresh(t, sc, func(sc *core.Scratch) *core.Result { return sched.ScheduleWith(sc, gs, strategy.S()) })
	sameResult(t, "after Release", after, sched.Schedule(gs, strategy.S()))
}

// scheduledAfresh requires schedule on sc to compute every allocation the
// way it does on a new scratch: as many steps grown, none replayed and no
// call answered with an earlier allocation. A released scratch recycles
// its allocations' storage, so an allocation computed before Release may
// share its address with one computed after it; what proves that none was
// served again is that the β = 1 runs are grown again in full. It returns
// the result schedule gave on sc.
func scheduledAfresh(t *testing.T, sc *core.Scratch, schedule func(*core.Scratch) *core.Result) *core.Result {
	t.Helper()
	fresh := core.NewScratch()
	schedule(fresh)
	want, _, _ := fresh.TraceCounters()
	grown, replayed, repeated := sc.TraceCounters()
	res := schedule(sc)
	g, rp, rt := sc.TraceCounters()
	if g-grown != want || rp != replayed || rt != repeated {
		t.Errorf("allocation survived Release: %d steps grown, %d replayed, %d calls repeated; a new scratch grows %d",
			g-grown, rp-replayed, rt-repeated, want)
	}
	if want == 0 {
		t.Fatal("the batch grows no step: the check proves nothing")
	}
	return res
}

// A graph that grew between two calls on one scratch is allocated afresh.
func TestScratchNeverServesMutatedGraph(t *testing.T) {
	sched := core.New(platform.Sophia())
	gs := batch(3, 11)
	sc := core.NewScratch()
	for _, strat := range []strategy.Strategy{strategy.S(), strategy.ES()} {
		sched.ScheduleWith(sc, gs, strat)
	}
	g := gs[1]
	extra := g.AddTask("appended", 8e6, 900, 0.05)
	for _, strat := range []strategy.Strategy{strategy.S(), strategy.ES()} {
		got := sched.ScheduleWith(sc, gs, strat)
		if n := len(got.Allocations[1].Procs); n != len(g.Tasks) {
			t.Fatalf("%v: allocation of %d tasks served for a graph of %d", strat, n, len(g.Tasks))
		}
		sameResult(t, "after AddTask, "+strat.Name(), got, sched.Schedule(gs, strat))
	}
	// An edge alone changes no task count, yet moves the critical path.
	g.MustAddEdge(g.Exits()[0], extra, 8e6)
	for _, strat := range []strategy.Strategy{strategy.S(), strategy.ES()} {
		sameResult(t, "after AddEdge, "+strat.Name(), sched.ScheduleWith(sc, gs, strat), sched.Schedule(gs, strat))
	}
}

// Release ends a scratch's use for one batch altogether: nothing computed
// before it is served after it, and scheduling on the released scratch
// equals scheduling from nothing.
func TestScratchReleaseForgetsTheBatch(t *testing.T) {
	sched := core.New(platform.Rennes())
	gs := batch(4, 21)
	sc := core.NewScratch()
	sched.ScheduleAloneWith(sc, gs[0])
	sched.ScheduleWith(sc, gs, strategy.S())
	sc.Release()
	after := scheduledAfresh(t, sc, func(sc *core.Scratch) *core.Result { return sched.ScheduleWith(sc, gs, strategy.S()) })
	sameResult(t, "after Release", after, sched.Schedule(gs, strategy.S()))
}

// A campaign point — every graph alone, then the batch under each of the
// paper's strategies — on a scratch carried from point to point allocates
// each graph from the trace its earlier β left (the β = 1 dedicated run
// comes first, so every constrained run replays a prefix of it), in step
// storage recycled from the point before. Each result equals a fresh
// Schedule call's, for every family on every site.
func TestPointOnCarriedScratchMatchesFreshSchedules(t *testing.T) {
	sc := core.NewScratch()
	for si, pf := range platform.Grid5000Sites() {
		sched := core.New(pf)
		for _, family := range []daggen.Family{daggen.FamilyRandom, daggen.FamilyFFT, daggen.FamilyStrassen} {
			r := rand.New(rand.NewSource(int64(70 + si)))
			gs := make([]*dag.Graph, 2+2*si)
			for i := range gs {
				gs[i] = daggen.Generate(family, r)
			}
			sc.Release()
			for i, g := range gs {
				if got, want := sched.ScheduleAloneWith(sc, g), sched.ScheduleAlone(g); got != want {
					t.Fatalf("%s %s: app %d alone: %g on the carried scratch, %g fresh", pf.Name, family, i, got, want)
				}
			}
			for _, strat := range strategy.PaperSet(family) {
				sameResult(t, pf.Name+" "+family.String()+" "+strat.Name(), sched.ScheduleWith(sc, gs, strat), sched.Schedule(gs, strat))
			}
		}
	}
}
