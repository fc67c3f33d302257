package online_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/events"
	"ptgsched/internal/online"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
)

func singleCluster(procs int, speed float64) *platform.Platform {
	return platform.New("test", true, platform.ClusterSpec{Name: "c0", Procs: procs, Speed: speed})
}

func chain(name string, works ...float64) *dag.Graph {
	g := dag.New(name)
	var prev *dag.Task
	for i, w := range works {
		t := g.AddTask(name+"-"+string(rune('a'+i)), 1, w, 0)
		if prev != nil {
			g.MustAddEdge(prev, t, 0)
		}
		prev = t
	}
	return g
}

func TestSingleAppMatchesOffline(t *testing.T) {
	// Selfish strategy on a 4-processor cluster: both fully-parallel
	// chain tasks grow to 4 processors, so the makespan is
	// 2/4 + latency + 3/4.
	pf := singleCluster(4, 1)
	res := online.Schedule(pf, []online.Arrival{{Graph: chain("a", 2, 3), At: 0}}, online.Options{})
	if math.Abs(res.Makespan-(1.25+platform.LANLatency)) > 1e-9 {
		t.Fatalf("makespan = %g, want ~1.25", res.Makespan)
	}
	app := res.Apps[0]
	if app.SubmittedAt != 0 || app.StartedAt != 0 {
		t.Errorf("app times: %+v", app)
	}
	if math.Abs(app.FlowTime()-res.Makespan) > 1e-12 {
		t.Errorf("flow time %g != makespan %g", app.FlowTime(), res.Makespan)
	}
	if len(res.Placements) != 2 {
		t.Errorf("%d placements, want 2", len(res.Placements))
	}
}

func TestLateArrivalWaitsForSubmission(t *testing.T) {
	pf := singleCluster(4, 1)
	res := online.Schedule(pf, []online.Arrival{
		{Graph: chain("late", 2), At: 10},
	}, online.Options{})
	if res.Apps[0].StartedAt < 10 {
		t.Fatalf("started at %g before submission at 10", res.Apps[0].StartedAt)
	}
	// Selfish allocation widens the single 2-GFlop task to all 4 procs.
	if math.Abs(res.Apps[0].FlowTime()-0.5) > 1e-9 {
		t.Fatalf("flow time = %g, want 0.5", res.Apps[0].FlowTime())
	}
}

func TestArrivalsNeedNotBeSorted(t *testing.T) {
	pf := singleCluster(8, 1)
	res := online.Schedule(pf, []online.Arrival{
		{Graph: chain("second", 1), At: 5},
		{Graph: chain("first", 1), At: 0},
	}, online.Options{})
	if res.Apps[0].SubmittedAt != 5 || res.Apps[1].SubmittedAt != 0 {
		t.Fatal("submission times not preserved by arrival order")
	}
	if res.Apps[1].CompletedAt > res.Apps[0].CompletedAt {
		t.Fatal("earlier arrival finished later despite free platform")
	}
}

func TestRebalanceCountsArrivalsAndCompletions(t *testing.T) {
	pf := singleCluster(8, 1)
	arrivals := []online.Arrival{
		{Graph: chain("a", 40), At: 0},
		{Graph: chain("b", 40), At: 1},
	}
	res := online.Schedule(pf, arrivals, online.Options{Strategy: strategy.ES()})
	// 2 arrivals + the first app's completion while the second (slowed by
	// the halved constraint) is still active.
	if res.Rebalances < 3 {
		t.Fatalf("rebalances = %d, want >= 3", res.Rebalances)
	}
	noReb := online.Schedule(pf, arrivals, online.Options{
		Strategy:                strategy.ES(),
		NoRebalanceOnCompletion: true,
	})
	if noReb.Rebalances >= res.Rebalances {
		t.Fatalf("NoRebalanceOnCompletion did not reduce rebalances: %d vs %d",
			noReb.Rebalances, res.Rebalances)
	}
}

func TestNewArrivalSqueezesRunningApp(t *testing.T) {
	// One long app alone on the platform under ES; a second app arrives
	// mid-flight. After the arrival the first app's pending tasks must be
	// reallocated under beta = 1/2, so the second app is not starved.
	pf := singleCluster(16, 1)
	long := chain("long", 40, 40, 40) // three sequential stages
	short := chain("short", 8)
	res := online.Schedule(pf, []online.Arrival{
		{Graph: long, At: 0},
		{Graph: short, At: 1},
	}, online.Options{Strategy: strategy.ES()})

	shortRes := res.Apps[1]
	// The short app should run long before the long app finishes.
	if shortRes.CompletedAt >= res.Apps[0].CompletedAt {
		t.Fatalf("short app starved: done at %g vs long done at %g",
			shortRes.CompletedAt, res.Apps[0].CompletedAt)
	}
	if shortRes.StartedAt < 1 {
		t.Fatalf("short app started at %g before its submission", shortRes.StartedAt)
	}
}

func TestPlacementsRespectProcessorExclusivity(t *testing.T) {
	pf := platform.Lille()
	r := rand.New(rand.NewSource(4))
	var arrivals []online.Arrival
	for i := 0; i < 5; i++ {
		arrivals = append(arrivals, online.Arrival{
			Graph: daggen.Generate(daggen.FamilyRandom, r),
			At:    float64(i) * 3,
		})
	}
	res := online.Schedule(pf, arrivals, online.Options{Strategy: strategy.ES()})

	type span struct{ start, end float64 }
	busy := make(map[[2]int][]span)
	for _, p := range res.Placements {
		for _, proc := range p.Procs {
			key := [2]int{p.Cluster.Index, proc}
			busy[key] = append(busy[key], span{p.Start, p.End})
		}
	}
	for key, spans := range busy {
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end-1e-9 {
				t.Fatalf("processor %v oversubscribed: [%g,%g] overlaps [%g,%g]",
					key, spans[i].start, spans[i].end, spans[i-1].start, spans[i-1].end)
			}
		}
	}
}

func TestPrecedenceRespectedAcrossRebalances(t *testing.T) {
	pf := platform.Nancy()
	r := rand.New(rand.NewSource(9))
	var arrivals []online.Arrival
	graphs := make([]*dag.Graph, 4)
	for i := range graphs {
		graphs[i] = daggen.Generate(daggen.FamilyFFT, r)
		arrivals = append(arrivals, online.Arrival{Graph: graphs[i], At: float64(i)})
	}
	res := online.Schedule(pf, arrivals, online.Options{Strategy: strategy.WPS(strategy.Work, 0.7)})

	placed := make(map[*dag.Task][2]float64)
	for _, p := range res.Placements {
		placed[p.Task] = [2]float64{p.Start, p.End}
	}
	for _, g := range graphs {
		for _, e := range g.Edges {
			from, okF := placed[e.From]
			to, okT := placed[e.To]
			if !okF || !okT {
				t.Fatalf("edge %s->%s not fully placed", e.From.Name, e.To.Name)
			}
			if to[0] < from[1]-1e-9 {
				t.Fatalf("%s starts at %g before %s ends at %g",
					e.To.Name, to[0], e.From.Name, from[1])
			}
		}
	}
}

func TestBurstMatchesOfflineOrderingBehaviour(t *testing.T) {
	// Submitting everything at t=0 must reproduce the offline scenario of
	// Figure 1: the small app is not postponed.
	pf := singleCluster(2, 1)
	big := chain("big", 10, 5)
	small := chain("small", 2, 2)
	res := online.Schedule(pf, []online.Arrival{
		{Graph: big, At: 0},
		{Graph: small, At: 0},
	}, online.Options{Strategy: strategy.ES()})
	if res.Apps[1].CompletedAt > 4.1 {
		t.Fatalf("small app done at %g, want ~4 (no postponing)", res.Apps[1].CompletedAt)
	}
	if res.Apps[0].CompletedAt > 15.1 {
		t.Fatalf("big app done at %g, want ~15", res.Apps[0].CompletedAt)
	}
}

func TestEmptyArrivalsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on empty arrivals")
		}
	}()
	online.Schedule(singleCluster(1, 1), nil, online.Options{})
}

func TestNegativeArrivalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on negative arrival time")
		}
	}()
	online.Schedule(singleCluster(1, 1), []online.Arrival{{Graph: chain("x", 1), At: -1}}, online.Options{})
}

func TestUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on an unknown rescheduling policy")
		}
	}()
	online.Schedule(singleCluster(1, 1), []online.Arrival{{Graph: chain("x", 1), At: 0}}, online.Options{
		Timeline: events.Timeline{{At: 1, Kind: events.ClusterDown, Cluster: 0}},
		Policy:   online.Policy(2),
	})
}

// Property: every application completes, flow times are positive, tasks of
// each app are all placed exactly once, and the run is deterministic.
func TestOnlineCompletenessProperty(t *testing.T) {
	sites := platform.Grid5000Sites()
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		pf := sites[int(uint64(seed)%4)]
		count := int(n%4) + 1
		var arrivals []online.Arrival
		total := 0
		for i := 0; i < count; i++ {
			g := daggen.Generate(daggen.Family(r.Intn(3)), r)
			arrivals = append(arrivals, online.Arrival{Graph: g, At: r.Float64() * 20})
			total += len(g.Tasks)
		}
		res := online.Schedule(pf, arrivals, online.Options{Strategy: strategy.ES()})
		if len(res.Placements) != total {
			return false
		}
		for i, app := range res.Apps {
			if app.CompletedAt <= app.SubmittedAt || app.StartedAt < app.SubmittedAt {
				t.Logf("seed %d app %d: %+v", seed, i, app)
				return false
			}
		}
		res2 := online.Schedule(pf, arrivals, online.Options{Strategy: strategy.ES()})
		return res.Makespan == res2.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
