package simexec

// Lifetime tests for a long-lived Scratch — the way the idle set keeps one
// across the units of work it lends it to: what it registers, what it
// pins, and what a panic leaves behind.
// In the package, to see the scratch's own fields.

import (
	"math/rand"
	"reflect"
	"testing"

	"ptgsched/internal/alloc"
	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/mapping"
	"ptgsched/internal/platform"
)

var siteNames = []string{"lille", "nancy", "rennes", "sophia"}

// siteBatch allocates two random PTGs for the named site. Allocations
// depend on the platform through its Reference only, a value, so they map
// onto every fresh instance of the site.
func siteBatch(t *testing.T, name string, seed int64) []*alloc.Allocation {
	t.Helper()
	pf, err := platform.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	apps := make([]*alloc.Allocation, 2)
	for i := range apps {
		apps[i] = alloc.Compute(daggen.Generate(daggen.FamilyRandom, r), pf.ReferenceCluster(), 0.5, alloc.SCRAPMAX)
	}
	return apps
}

func requireSameExecution(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Makespan != want.Makespan || !reflect.DeepEqual(got.AppMakespans, want.AppMakespans) ||
		!reflect.DeepEqual(got.Starts, want.Starts) || !reflect.DeepEqual(got.Ends, want.Ends) {
		t.Fatalf("%s: makespans %v (%g), a fresh scratch gives %v (%g)", what,
			got.AppMakespans, got.Makespan, want.AppMakespans, want.Makespan)
	}
}

// platform.ByName returns a fresh Platform, with fresh links, per call — and
// the service resolves one per request. A scratch that outlives a request
// must not accumulate them: after 1,000 executions over fresh platforms the
// flow net knows the links of one platform, the last.
func TestScratchRegistryDoesNotGrowAcrossPlatforms(t *testing.T) {
	batches := make(map[string][]*alloc.Allocation)
	for i, name := range siteNames {
		batches[name] = siteBatch(t, name, int64(60+i))
	}
	sc := NewScratch()
	crossed := 0
	for i := 0; i < 1000; i++ {
		name := siteNames[i%len(siteNames)]
		pf, err := platform.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sched := mapping.Map(pf, batches[name], mapping.Options{})
		res := sc.Execute(sched)
		links := 2 * len(pf.Clusters)
		if pf.Backbone != nil {
			links++
		}
		if n := sc.net.RegisteredLinks(); n > links {
			t.Fatalf("execution %d on %s: %d links registered, the platform has %d", i, name, n, links)
		}
		crossed = max(crossed, sc.net.RegisteredLinks())
		if i%97 == 0 {
			requireSameExecution(t, name, res, Execute(sched))
		}
	}
	if crossed < 3 {
		t.Fatalf("at most %d links crossed per execution: the batches do not exercise the network", crossed)
	}
}

// Release leaves no path from a parked scratch to the schedule it last
// executed, at any index its buffers ever reached, and the scratch works
// as before afterwards.
func TestScratchReleaseDropsTheSchedule(t *testing.T) {
	pf := platform.Rennes()
	big := mapping.Map(pf, siteBatch(t, "rennes", 3), mapping.Options{})
	small := mapping.Map(pf, siteBatch(t, "rennes", 4)[:1], mapping.Options{})
	sc := NewScratch()
	sc.Execute(big)
	sc.Execute(small) // leaves big's placements beyond len(sc.tasks)
	sc.Release()
	if sc.sched != nil {
		t.Error("schedule still referenced after Release")
	}
	for i, et := range sc.tasks[:cap(sc.tasks)] {
		if et.p != nil {
			t.Fatalf("task slot %d still references a placement after Release", i)
		}
	}
	requireSameExecution(t, "after Release", sc.Execute(big), Execute(big))
}

// A schedule whose processor order contradicts its data dependences
// deadlocks, and Execute panics with the engine drained and every buffer
// half used. The next Execute starts from its inputs alone.
func TestScratchUsableAfterExecutePanics(t *testing.T) {
	pf := platform.New("one", true, platform.ClusterSpec{Name: "c0", Procs: 1, Speed: 1})
	g := dag.New("chain")
	a := g.AddTask("a", 1, 3, 0)
	b := g.AddTask("b", 1, 5, 0)
	g.MustAddEdge(a, b, 1e6)
	broken := mapping.Map(pf, []*alloc.Allocation{{Graph: g, Ref: pf.ReferenceCluster(), Beta: 1, Procs: []int{1, 1}}}, mapping.Options{})
	broken.PlacementOf(b).Start = -1 // b before a on their one processor

	good := mapping.Map(platform.Nancy(), siteBatch(t, "nancy", 8), mapping.Options{})
	sc := NewScratch()
	sc.Execute(good)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the deadlocked schedule did not panic")
			}
		}()
		sc.Execute(broken)
	}()
	requireSameExecution(t, "after a panic", sc.Execute(good), Execute(good))
}
