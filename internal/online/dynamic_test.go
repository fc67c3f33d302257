package online_test

// Tests of the dynamic-scenario machinery: empty-timeline equivalence
// (bit-identical to the static run), failure/recovery kill-and-reschedule
// semantics under both rescheduling policies, speed changes, cancellation
// and resubmission, and the oracle-facing Result records.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/events"
	"ptgsched/internal/mapping"
	"ptgsched/internal/online"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
	"ptgsched/internal/trace"
)

func twoClusters(procs int, speed float64) *platform.Platform {
	return platform.New("duo", true,
		platform.ClusterSpec{Name: "c0", Procs: procs, Speed: speed},
		platform.ClusterSpec{Name: "c1", Procs: procs, Speed: speed},
	)
}

// randomArrivals draws a deterministic poisson workload.
func randomArrivals(n int, seed int64) []online.Arrival {
	r := rand.New(rand.NewSource(seed))
	arrivals := make([]online.Arrival, n)
	t := 0.0
	for i := range arrivals {
		arrivals[i] = online.Arrival{Graph: daggen.Generate(daggen.FamilyRandom, r), At: t}
		t += r.ExpFloat64() / 0.5
	}
	return arrivals
}

// placementsEqual compares two placement lists field by field (bit-exact
// floats included).
func placementsEqual(t *testing.T, a, b []*mapping.Placement) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("placement counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		p, q := a[i], b[i]
		if p.App != q.App || p.Task.ID != q.Task.ID || p.Cluster.Index != q.Cluster.Index ||
			p.Start != q.Start || p.End != q.End || !reflect.DeepEqual(p.Procs, q.Procs) {
			t.Fatalf("placement %d differs:\n  %v\n  %v", i, p, q)
		}
	}
}

// TestEmptyTimelineIsBitIdenticalToStatic: the hard guarantee — a dynamic
// run with an empty timeline reproduces the static run's placements, app
// results and makespan bit for bit.
func TestEmptyTimelineIsBitIdenticalToStatic(t *testing.T) {
	pf := platform.Rennes()
	for _, seed := range []int64{3, 9} {
		arrivals := randomArrivals(4, seed)
		static := online.Schedule(pf, arrivals, online.Options{Strategy: strategy.ES()})
		dyn := online.Schedule(pf, arrivals, online.Options{
			Strategy: strategy.ES(),
			Timeline: events.Timeline{},
			Policy:   online.Restart,
		})
		if static.Makespan != dyn.Makespan {
			t.Fatalf("makespans differ: %v vs %v", static.Makespan, dyn.Makespan)
		}
		if !reflect.DeepEqual(static.Apps, dyn.Apps) {
			t.Fatalf("app results differ:\n  %+v\n  %+v", static.Apps, dyn.Apps)
		}
		placementsEqual(t, static.Placements, dyn.Placements)
		if dyn.EventsApplied != 0 || dyn.Reschedules != 0 || len(dyn.Restarts) != 0 {
			t.Fatalf("empty timeline left dynamic traces: %+v", dyn)
		}
	}
}

// TestFailureKillsAndReschedules: a mid-run permanent failure of one
// cluster must leave no surviving placement overlapping the outage, delay
// the makespan, and pass the extended oracle under both policies.
func TestFailureKillsAndReschedules(t *testing.T) {
	pf := twoClusters(8, 1)
	g := chain("work", 20, 20)
	arrivals := []online.Arrival{{Graph: g, At: 0}}
	baseline := online.Schedule(pf, arrivals, online.Options{Strategy: strategy.ES()})
	failAt := baseline.Makespan * 0.5
	tl := events.Timeline{{At: failAt, Kind: events.ClusterDown, Cluster: 0}}

	for _, policy := range []online.Policy{online.Restart, online.Checkpoint} {
		res := online.Schedule(pf, arrivals, online.Options{
			Strategy: strategy.ES(), Timeline: tl, Policy: policy,
		})
		if res.Makespan < baseline.Makespan {
			t.Fatalf("%s: failure improved makespan %g -> %g", policy, baseline.Makespan, res.Makespan)
		}
		for _, p := range res.Placements {
			if p.Cluster.Index == 0 && p.End > failAt+1e-9 {
				t.Fatalf("%s: surviving placement %v overlaps the outage from %g", policy, p, failAt)
			}
		}
		err := trace.ValidateDynamic(pf, []*dag.Graph{g}, res.Placements, trace.Dynamic{
			DownIntervals: tl.DownIntervals(len(pf.Clusters)),
			Releases:      []float64{0},
			Cancelled:     res.Cancelled,
			Restarts:      res.Restarts,
		})
		if err != nil {
			t.Fatalf("%s: oracle rejected rescheduled run: %v", policy, err)
		}
	}
}

// TestCheckpointKeepsCompletedWork: when a failure kills the second stage
// of a two-stage chain, the restart policy reruns stage one (recording a
// restart) while the checkpoint policy keeps it — so checkpoint finishes
// no later and emits no restart record.
func TestCheckpointKeepsCompletedWork(t *testing.T) {
	pf := twoClusters(4, 1)
	g := chain("stages", 8, 8)
	arrivals := []online.Arrival{{Graph: g, At: 0}}
	baseline := online.Schedule(pf, arrivals, online.Options{Strategy: strategy.ES()})
	// Fail the cluster running stage two midway through it.
	half := baseline.Placements[1]
	tl := events.Timeline{
		{At: (half.Start + half.End) / 2, Kind: events.ClusterDown, Cluster: half.Cluster.Index},
	}
	restart := online.Schedule(pf, arrivals, online.Options{
		Strategy: strategy.ES(), Timeline: tl, Policy: online.Restart,
	})
	checkpoint := online.Schedule(pf, arrivals, online.Options{
		Strategy: strategy.ES(), Timeline: tl, Policy: online.Checkpoint,
	})
	if len(restart.Restarts) == 0 {
		t.Fatal("restart policy discarded completed work without a restart record")
	}
	if len(checkpoint.Restarts) != 0 {
		t.Fatalf("checkpoint policy recorded restarts: %+v", checkpoint.Restarts)
	}
	if checkpoint.Makespan > restart.Makespan+1e-9 {
		t.Fatalf("checkpoint (%g) finished later than restart-from-scratch (%g)",
			checkpoint.Makespan, restart.Makespan)
	}
}

// TestRecoveryRestoresCapacity: with every cluster down, ready work waits;
// the recovery event must let it finish.
func TestRecoveryRestoresCapacity(t *testing.T) {
	pf := singleCluster(4, 1)
	tl := events.Timeline{
		{At: 0.0, Kind: events.ClusterDown, Cluster: 0},
		{At: 7.0, Kind: events.ClusterUp, Cluster: 0},
	}
	tl.Sort()
	res := online.Schedule(pf, []online.Arrival{{Graph: chain("w", 4), At: 0}}, online.Options{
		Strategy: strategy.ES(), Timeline: tl, Policy: online.Restart,
	})
	if res.Apps[0].StartedAt < 7 {
		t.Fatalf("work started at %g during the outage [0, 7)", res.Apps[0].StartedAt)
	}
	if res.Makespan <= 7 {
		t.Fatalf("makespan %g inside the outage", res.Makespan)
	}
}

// TestSpeedChangeSlowsSubsequentWork: halving the only cluster's speed
// before the run starts doubles the single task's span.
func TestSpeedChangeSlowsSubsequentWork(t *testing.T) {
	pf := singleCluster(1, 2)
	fast := online.Schedule(pf, []online.Arrival{{Graph: chain("x", 6), At: 1}}, online.Options{})
	tl := events.Timeline{{At: 0.5, Kind: events.SpeedChange, Cluster: 0, Factor: 0.5}}
	slow := online.Schedule(pf, []online.Arrival{{Graph: chain("x", 6), At: 1}}, online.Options{
		Timeline: tl, Policy: online.Restart,
	})
	if math.Abs(slow.Makespan-(1+2*(fast.Makespan-1))) > 1e-9 {
		t.Fatalf("halved speed: makespan %g, want %g", slow.Makespan, 1+2*(fast.Makespan-1))
	}
}

// TestCancelRemovesApplication: a cancelled application leaves no
// placements and stops counting; a cancel of a completed application is a
// no-op.
func TestCancelRemovesApplication(t *testing.T) {
	pf := singleCluster(8, 1)
	a, b := chain("a", 30, 30), chain("b", 2)
	arrivals := []online.Arrival{{Graph: a, At: 0}, {Graph: b, At: 0}}
	tl := events.Timeline{{At: 5, Kind: events.Cancel, App: 0}}
	res := online.Schedule(pf, arrivals, online.Options{
		Strategy: strategy.ES(), Timeline: tl, Policy: online.Restart,
	})
	if !res.Cancelled[0] || res.Cancelled[1] {
		t.Fatalf("cancel marks wrong: %v", res.Cancelled)
	}
	for _, p := range res.Placements {
		if p.App == 0 {
			t.Fatalf("cancelled application left placement %v", p)
		}
	}
	if res.Apps[0].CompletedAt != 5 {
		t.Fatalf("cancelled app left the system at %g, want 5", res.Apps[0].CompletedAt)
	}

	// Cancelling after everything finished changes nothing.
	late := online.Schedule(pf, arrivals, online.Options{
		Strategy: strategy.ES(),
		Timeline: events.Timeline{{At: 1e6, Kind: events.Cancel, App: 0}},
		Policy:   online.Restart,
	})
	if late.Cancelled[0] {
		t.Fatal("cancel of a completed application took effect")
	}
}

// TestResubmitRerunsFromScratch: cancel-then-resubmit completes the
// application anew, records the restart, and every surviving placement
// starts at or after the resubmission.
func TestResubmitRerunsFromScratch(t *testing.T) {
	pf := singleCluster(8, 1)
	g := chain("r", 10, 10)
	tl := events.Timeline{
		{At: 2, Kind: events.Cancel, App: 0},
		{At: 6, Kind: events.Resubmit, App: 0},
	}
	tl.Sort()
	res := online.Schedule(pf, []online.Arrival{{Graph: g, At: 0}}, online.Options{
		Strategy: strategy.ES(), Timeline: tl, Policy: online.Restart,
	})
	if res.Cancelled[0] {
		t.Fatal("resubmitted application still marked cancelled")
	}
	if res.Apps[0].SubmittedAt != 6 {
		t.Fatalf("resubmitted at %g, want 6", res.Apps[0].SubmittedAt)
	}
	if len(res.Restarts) != 1 || res.Restarts[0].At != 6 {
		t.Fatalf("restart records: %+v", res.Restarts)
	}
	for _, p := range res.Placements {
		if p.Start < 6 {
			t.Fatalf("placement %v predates the resubmission at 6", p)
		}
	}
	if err := trace.ValidateDynamic(pf, []*dag.Graph{g}, res.Placements, trace.Dynamic{
		Releases:  []float64{0},
		Cancelled: res.Cancelled,
		Restarts:  res.Restarts,
	}); err != nil {
		t.Fatalf("oracle rejected resubmitted run: %v", err)
	}
}

// TestPolicyRegistry: names round-trip and unknown names fail.
func TestPolicyRegistry(t *testing.T) {
	for _, name := range online.PolicyNames() {
		p, err := online.PolicyByName(name)
		if err != nil {
			t.Fatalf("registered policy %q: %v", name, err)
		}
		if p.String() != name {
			t.Fatalf("policy %q reports name %q", name, p.String())
		}
	}
	if _, err := online.PolicyByName("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
