package trace_test

import (
	"math"
	"testing"

	"ptgsched/internal/alloc"
	"ptgsched/internal/dag"
	"ptgsched/internal/mapping"
	"ptgsched/internal/platform"
	"ptgsched/internal/trace"
)

// twoTaskSchedule builds a hand-crafted schedule: two unit-work tasks of
// two apps on a 2-proc, speed-1 cluster, serial on processor 0 and with
// processor 1 idle.
func twoTaskSchedule(t *testing.T) *mapping.Schedule {
	t.Helper()
	pf := platform.New("u", true, platform.ClusterSpec{Name: "c0", Procs: 2, Speed: 1})
	g1 := dag.New("a")
	g1.AddTask("a0", 1, 1, 0)
	g2 := dag.New("b")
	g2.AddTask("b0", 1, 1, 0)
	mk := func(g *dag.Graph) *alloc.Allocation {
		return &alloc.Allocation{Graph: g, Ref: pf.ReferenceCluster(), Beta: 1, Procs: []int{1}}
	}
	s := mapping.NewSchedule(pf, []*alloc.Allocation{mk(g1), mk(g2)})
	c := pf.Clusters[0]
	s.Add(&mapping.Placement{App: 0, Task: g1.Tasks[0], Cluster: c, Procs: []int{0}, Start: 0, End: 1})
	s.Add(&mapping.Placement{App: 1, Task: g2.Tasks[0], Cluster: c, Procs: []int{0}, Start: 1, End: 2})
	return s
}

func TestUtilizationHalfBusy(t *testing.T) {
	s := twoTaskSchedule(t)
	us := trace.Utilization(s)
	if len(us) != 1 {
		t.Fatalf("%d clusters", len(us))
	}
	// 2 busy proc-seconds out of 2 procs × 2 s horizon.
	if math.Abs(us[0].BusyProcSeconds-2) > 1e-12 {
		t.Errorf("busy = %g, want 2", us[0].BusyProcSeconds)
	}
	if math.Abs(us[0].Utilization-0.5) > 1e-12 {
		t.Errorf("utilization = %g, want 0.5", us[0].Utilization)
	}
}

func TestEfficiencyPerfectForSerialTasks(t *testing.T) {
	s := twoTaskSchedule(t)
	es := trace.Efficiencies(s)
	if len(es) != 2 {
		t.Fatalf("%d apps", len(es))
	}
	for _, e := range es {
		// 1 GFlop at 1 GFlop/s on 1 proc for 1 s: perfectly efficient.
		if math.Abs(e.Efficiency-1) > 1e-12 {
			t.Errorf("app %d efficiency = %g, want 1", e.App, e.Efficiency)
		}
	}
}

func TestEfficiencyDropsWithAmdahl(t *testing.T) {
	pf := platform.New("u", true, platform.ClusterSpec{Name: "c0", Procs: 8, Speed: 1})
	g := dag.New("a")
	g.AddTask("a0", 1, 8, 0.25) // alpha 0.25
	a := &alloc.Allocation{Graph: g, Ref: pf.ReferenceCluster(), Beta: 1, Procs: []int{8}}
	s := mapping.Map(pf, []*alloc.Allocation{a}, mapping.Options{})
	es := trace.Efficiencies(s)
	// T(8) = 8*(0.25 + 0.75/8) = 2.75 s on 8 procs: 22 proc-seconds for
	// 8 seconds of sequential work -> efficiency 8/22.
	want := 8.0 / 22.0
	if math.Abs(es[0].Efficiency-want) > 1e-9 {
		t.Fatalf("efficiency = %g, want %g", es[0].Efficiency, want)
	}
}

func TestSummarize(t *testing.T) {
	s := twoTaskSchedule(t)
	sum := trace.Summarize(s)
	if sum.Placements != 2 {
		t.Errorf("placements = %d", sum.Placements)
	}
	if math.Abs(sum.Makespan-2) > 1e-12 {
		t.Errorf("makespan = %g", sum.Makespan)
	}
	if math.Abs(sum.MeanUtilization-0.5) > 1e-12 {
		t.Errorf("mean utilization = %g", sum.MeanUtilization)
	}
	if math.Abs(sum.MeanEfficiency-1) > 1e-12 {
		t.Errorf("mean efficiency = %g", sum.MeanEfficiency)
	}
	if sum.String() == "" {
		t.Error("empty summary string")
	}
}

func TestConstrainedStrategiesUseFewerProcSeconds(t *testing.T) {
	// The whole point of beta: a constrained allocation consumes less
	// processor time than a selfish one for the same applications.
	pf := platform.Rennes()
	selfishTotal, constrainedTotal := 0.0, 0.0
	for seed := int64(0); seed < 5; seed++ {
		gs := graphsForSeed(t, seed, 4)
		selfish := scheduleWith(t, pf, gs, 1.0)
		constrained := scheduleWith(t, pf, gs, 0.25)
		for _, e := range trace.Efficiencies(selfish) {
			selfishTotal += e.ConsumedProcSeconds
		}
		for _, e := range trace.Efficiencies(constrained) {
			constrainedTotal += e.ConsumedProcSeconds
		}
	}
	if constrainedTotal >= selfishTotal {
		t.Fatalf("constrained allocations consumed %g proc-seconds >= selfish %g",
			constrainedTotal, selfishTotal)
	}
}

// --- edge cases: empty schedules, single tasks, zero-width placements ---

// emptySchedule is a schedule with apps registered but nothing placed.
func emptySchedule() *mapping.Schedule {
	pf := platform.New("u", true, platform.ClusterSpec{Name: "c0", Procs: 2, Speed: 1})
	g := dag.New("a")
	g.AddTask("a0", 1, 1, 0)
	a := &alloc.Allocation{Graph: g, Ref: pf.ReferenceCluster(), Beta: 1, Procs: []int{1}}
	return mapping.NewSchedule(pf, []*alloc.Allocation{a})
}

func TestUtilizationEmptySchedule(t *testing.T) {
	s := emptySchedule()
	us := trace.Utilization(s)
	if len(us) != 1 {
		t.Fatalf("%d clusters", len(us))
	}
	if us[0].BusyProcSeconds != 0 || us[0].Utilization != 0 {
		t.Fatalf("empty schedule reports busy=%g util=%g", us[0].BusyProcSeconds, us[0].Utilization)
	}
}

func TestSummarizeEmptyScheduleNoNaN(t *testing.T) {
	sum := trace.Summarize(emptySchedule())
	if sum.Placements != 0 || sum.Makespan != 0 {
		t.Fatalf("summary %+v", sum)
	}
	for name, v := range map[string]float64{
		"mean utilization": sum.MeanUtilization,
		"mean efficiency":  sum.MeanEfficiency,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %g on an empty schedule", name, v)
		}
	}
	if sum.String() == "" {
		t.Error("empty summary string")
	}
}

func TestEfficienciesEmptySchedule(t *testing.T) {
	es := trace.Efficiencies(emptySchedule())
	if len(es) != 1 {
		t.Fatalf("%d apps", len(es))
	}
	if es[0].Efficiency != 0 || es[0].ConsumedProcSeconds != 0 {
		t.Fatalf("unplaced app reports %+v", es[0])
	}
}

func TestUtilizationSingleTask(t *testing.T) {
	pf := platform.New("u", true, platform.ClusterSpec{Name: "c0", Procs: 4, Speed: 2})
	g := dag.New("a")
	g.AddTask("a0", 1, 2, 0) // 2 GFlop at 2 GFlop/s = 1 s on one proc
	a := &alloc.Allocation{Graph: g, Ref: pf.ReferenceCluster(), Beta: 1, Procs: []int{1}}
	s := mapping.Map(pf, []*alloc.Allocation{a}, mapping.Options{})
	us := trace.Utilization(s)
	// One of four processors busy for the whole horizon.
	if math.Abs(us[0].Utilization-0.25) > 1e-12 {
		t.Fatalf("utilization = %g, want 0.25", us[0].Utilization)
	}
	sum := trace.Summarize(s)
	if sum.Placements != 1 {
		t.Fatalf("%d placements", sum.Placements)
	}
	if math.Abs(sum.MeanEfficiency-1) > 1e-12 {
		t.Fatalf("single serial task efficiency = %g, want 1", sum.MeanEfficiency)
	}
}

func TestUtilizationZeroWidthPlacements(t *testing.T) {
	// All placements have zero duration: the horizon collapses to zero and
	// the utilization guard must keep every ratio finite.
	pf := platform.New("u", true, platform.ClusterSpec{Name: "c0", Procs: 2, Speed: 1})
	g := dag.New("a")
	g.AddTask("a0", 1, 0, 0) // zero work -> zero-width placement
	a := &alloc.Allocation{Graph: g, Ref: pf.ReferenceCluster(), Beta: 1, Procs: []int{1}}
	s := mapping.NewSchedule(pf, []*alloc.Allocation{a})
	s.Add(&mapping.Placement{App: 0, Task: g.Tasks[0], Cluster: pf.Clusters[0], Procs: []int{0}, Start: 0, End: 0})

	us := trace.Utilization(s)
	if us[0].Utilization != 0 || math.IsNaN(us[0].Utilization) {
		t.Fatalf("zero-horizon utilization = %g", us[0].Utilization)
	}
	sum := trace.Summarize(s)
	if math.IsNaN(sum.MeanUtilization) || math.IsNaN(sum.MeanEfficiency) {
		t.Fatalf("zero-horizon summary has NaN: %+v", sum)
	}
	es := trace.Efficiencies(s)
	if math.IsNaN(es[0].Efficiency) {
		t.Fatalf("zero-consumption efficiency is NaN")
	}
}
