package ptgsched_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"ptgsched"
)

// Example demonstrates the complete paper pipeline on a deterministic toy
// scenario: two chain applications share a 2-processor cluster under the
// equal-share strategy.
func Example() {
	pf := ptgsched.NewPlatform("toy", true,
		ptgsched.ClusterSpec{Name: "c0", Procs: 2, Speed: 1})

	mk := func(name string, works ...float64) *ptgsched.Graph {
		g := ptgsched.NewGraph(name)
		var prev *ptgsched.Task
		for i, w := range works {
			t := g.AddTask(fmt.Sprintf("%s%d", name, i), 1, w, 0)
			if prev != nil {
				g.MustAddEdge(prev, t, 0)
			}
			prev = t
		}
		return g
	}
	big, small := mk("big", 10, 5), mk("small", 2, 2)

	sched := ptgsched.NewScheduler(pf)
	res := sched.Schedule([]*ptgsched.Graph{big, small}, ptgsched.ES())
	fmt.Printf("big:   %.0f s\n", res.Makespan(0))
	fmt.Printf("small: %.0f s\n", res.Makespan(1))
	// Output:
	// big:   15 s
	// small: 4 s
}

// ExampleStrategy_Betas shows how the eight strategies translate PTG
// characteristics into resource constraints.
func ExampleStrategy_Betas() {
	g1 := ptgsched.NewGraph("light")
	g1.AddTask("t", 1e6, 100, 0)
	g2 := ptgsched.NewGraph("heavy")
	g2.AddTask("t", 1e6, 300, 0)
	graphs := []*ptgsched.Graph{g1, g2}
	ref := ptgsched.Rennes().ReferenceCluster()

	for _, s := range []ptgsched.Strategy{
		ptgsched.ES(),
		ptgsched.PS(ptgsched.Work),
		ptgsched.WPS(ptgsched.Work, 0.5),
	} {
		fmt.Printf("%-8s %.3v\n", s.Name(), s.Betas(graphs, ref))
	}
	// Output:
	// ES       [0.5 0.5]
	// PS-work  [0.25 0.75]
	// WPS-work [0.375 0.625]
}

// ExampleGeneratePTG draws one of the paper's synthetic workflow graphs.
func ExampleGeneratePTG() {
	r := rand.New(rand.NewSource(1))
	g := ptgsched.GeneratePTG(ptgsched.FamilyStrassen, r)
	stats := g.ComputeStats()
	fmt.Printf("%s: %d tasks, depth %d, width %d\n",
		g.Name, stats.Tasks, stats.Depth, stats.MaxWidth)
	// Output:
	// strassen: 25 tasks, depth 5, width 10
}

// ExampleScheduler_Schedule runs the pipeline on a generated batch and
// inspects the per-application outcome.
func ExampleScheduler_Schedule() {
	pf := ptgsched.Rennes()
	sched := ptgsched.NewScheduler(pf)
	r := rand.New(rand.NewSource(2))
	graphs := []*ptgsched.Graph{
		ptgsched.StrassenPTG(r),
		ptgsched.StrassenPTG(r),
	}
	res := sched.Schedule(graphs, ptgsched.PS(ptgsched.Work))
	for i := range graphs {
		fmt.Printf("app %d: beta %.2f, makespan %.1f s\n", i, res.Betas[i], res.Makespan(i))
	}
	// Output:
	// app 0: beta 0.12, makespan 6.1 s
	// app 1: beta 0.88, makespan 11.9 s
}

// ExampleScheduleOnline schedules applications arriving over time, with
// the resource constraints rebalanced on each arrival and completion.
func ExampleScheduleOnline() {
	pf := ptgsched.NewPlatform("toy", true,
		ptgsched.ClusterSpec{Name: "c0", Procs: 4, Speed: 1})
	mkChain := func(name string, works ...float64) *ptgsched.Graph {
		g := ptgsched.NewGraph(name)
		var prev *ptgsched.Task
		for i, w := range works {
			t := g.AddTask(fmt.Sprintf("%s%d", name, i), 1, w, 0)
			if prev != nil {
				g.MustAddEdge(prev, t, 0)
			}
			prev = t
		}
		return g
	}
	arrivals := []ptgsched.Arrival{
		{Graph: mkChain("a", 4, 4), At: 0},
		{Graph: mkChain("b", 2, 2), At: 1},
	}
	res := ptgsched.ScheduleOnline(pf, arrivals, ptgsched.OnlineOptions{
		Strategy: ptgsched.ES(),
	})
	for i, app := range res.Apps {
		fmt.Printf("app %d: flow time %.0f s\n", i, app.FlowTime())
	}
	fmt.Printf("rebalances: %d\n", res.Rebalances)
	// Output:
	// app 0: flow time 3 s
	// app 1: flow time 2 s
	// rebalances: 3
}

// ExampleNewService submits a request to the concurrent scheduling
// service — the same pipeline, multiplexed through a bounded worker pool.
func ExampleNewService() {
	svc := ptgsched.NewService(ptgsched.ServiceOptions{Workers: 2})
	defer svc.Close()

	resp, err := svc.Schedule(context.Background(), ptgsched.ScheduleServiceRequest{
		Platform: "lille",
		Family:   "strassen",
		Count:    2,
		Strategy: "ES",
		Seed:     7,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s on %s: %d apps, betas %.2v\n",
		resp.Strategy, resp.Platform, resp.Count, resp.Betas)
	fmt.Printf("makespan %.1f s\n", resp.Makespan)
	// Output:
	// ES on Lille: 2 apps, betas [0.5 0.5]
	// makespan 19.0 s
}

// ExampleService_SubmitJob is the asynchronous campaign round-trip: submit
// a job, poll it to completion, stream its per-point results. Over HTTP
// the same flow is POST /v1/jobs → GET /v1/jobs/{id} →
// GET /v1/jobs/{id}/results.
func ExampleService_SubmitJob() {
	svc := ptgsched.NewService(ptgsched.ServiceOptions{Workers: 2})
	defer svc.Close()

	st, err := svc.SubmitJob(ptgsched.CampaignJobRequest{
		Spec: []byte(`{
			"name": "demo", "seed": 9, "reps": 2, "nptgs": [2, 3],
			"platforms": ["lille"], "families": [{"family": "strassen"}]
		}`),
		Shards: 2,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("submitted: %d points in %d shards\n", st.Points, len(st.Shards))

	// Poll (WaitJob blocks; a remote client polls GET /v1/jobs/{id}).
	final, err := svc.WaitJob(context.Background(), st.ID)
	if err != nil {
		panic(err)
	}
	fmt.Printf("state %s: %d/%d points\n", final.State, final.Completed, final.Points)

	// Stream completed results, projected to the ES strategy column.
	var buf bytes.Buffer
	if err := svc.JobResults(st.ID, ptgsched.CampaignJobResultQuery{Strategy: "ES"}, &buf); err != nil {
		panic(err)
	}
	results, err := ptgsched.ReadCampaignJSONL(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Printf("streamed %d results; first: %s\n", len(results), results[0].Name)
	// Output:
	// submitted: 4 points in 2 shards
	// state done: 4/4 points
	// streamed 4 results; first: strassen/n=2/rep=0/Lille
}

// ExampleParseCampaignSpec expands a declarative campaign spec into its
// deterministic scenario sweep and runs one shard of it.
func ExampleParseCampaignSpec() {
	spec, err := ptgsched.ParseCampaignSpec([]byte(`{
		"name": "demo",
		"seed": 9,
		"reps": 2,
		"nptgs": [2, 3],
		"platforms": ["lille"],
		"families": [{"family": "strassen"}]
	}`))
	if err != nil {
		panic(err)
	}
	e, err := ptgsched.ExpandCampaign(spec)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d cells, %d points\n", len(e.Cells), e.NumPoints())

	shard, err := e.Shard(0, 2) // every 2nd point; run the rest elsewhere
	if err != nil {
		panic(err)
	}
	results, err := e.Run(shard, ptgsched.CampaignSweepOptions{Workers: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("shard 0/2 ran %d points; first: %s\n", len(results), results[0].Name)
	// Output:
	// 1 cells, 4 points
	// shard 0/2 ran 2 points; first: strassen/n=2/rep=0/Lille
}
