package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"ptgsched/internal/alloc"
	"ptgsched/internal/core"
	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/mapping"
	"ptgsched/internal/platform"
	"ptgsched/internal/service"
	"ptgsched/internal/simexec"
	"ptgsched/internal/strategy"
	"ptgsched/internal/trace"
)

var sites = []string{"lille", "nancy", "rennes", "sophia"}

// serviceWorkload is service_crowded: a closed loop of clients, each
// sending its next POST /v1/schedule only after the previous reply, as
// the coordinator and the CLI callers do. A pass is the same fixed list
// of requests whatever the client count, so every pass yields the same
// result set.
type serviceWorkload struct {
	cfg      config
	requests int // per pass
	count    int // PTGs per request

	svc    *service.Service
	srv    *httptest.Server
	client *http.Client

	bodies [][]byte
	reqs   []service.ScheduleRequest
	// want maps sampled request indices to the makespans
	// core.New(pf).Schedule gives for the same generated graphs.
	want map[int]*simexec.Result
}

func newServiceWorkload(cfg config) *serviceWorkload {
	w := &serviceWorkload{cfg: cfg, requests: 50, count: 64}
	if cfg.tiny {
		w.requests, w.count = 8, 8
	}
	return w
}

func (w *serviceWorkload) setup() error {
	width := w.cfg.width
	w.svc = service.New(service.Options{Workers: width, QueueDepth: 4 * width})
	w.srv = httptest.NewServer(service.Handler(w.svc))
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: width}}

	w.reqs = make([]service.ScheduleRequest, w.requests)
	w.bodies = make([][]byte, w.requests)
	for i := range w.reqs {
		w.reqs[i] = service.ScheduleRequest{
			Platform: sites[i%len(sites)], Family: "random", Count: w.count,
			Strategy: "ES", Seed: w.cfg.seed*1_000_003 + int64(i),
		}
		b, err := json.Marshal(w.reqs[i])
		if err != nil {
			return err
		}
		w.bodies[i] = b
	}

	w.want = make(map[int]*simexec.Result)
	r := rand.New(rand.NewSource(w.cfg.seed))
	for len(w.want) < min(oracleSample, w.requests) {
		i := r.Intn(w.requests)
		if _, ok := w.want[i]; ok {
			continue
		}
		pf, graphs, err := w.materialize(w.reqs[i])
		if err != nil {
			return err
		}
		exec := core.New(pf).Schedule(graphs, strategy.ES()).Exec
		w.want[i] = &simexec.Result{Makespan: exec.Makespan, AppMakespans: append([]float64(nil), exec.AppMakespans...)}
	}
	if w.cfg.corrupt {
		for _, want := range w.want {
			want.Makespan++
		}
	}
	return nil
}

// materialize generates a request's PTG batch the way Service.Schedule
// does: Count graphs of the family drawn from one source seeded with Seed.
func (w *serviceWorkload) materialize(req service.ScheduleRequest) (*platform.Platform, []*dag.Graph, error) {
	pf, err := platform.ByName(req.Platform)
	if err != nil {
		return nil, nil, err
	}
	fam, err := daggen.FamilyByName(req.Family)
	if err != nil {
		return nil, nil, err
	}
	r := rand.New(rand.NewSource(req.Seed))
	graphs := make([]*dag.Graph, req.Count)
	for i := range graphs {
		graphs[i] = daggen.Generate(fam, r)
	}
	return pf, graphs, nil
}

func (w *serviceWorkload) teardown() {
	if w.srv != nil {
		w.srv.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.svc != nil {
		w.svc.Close()
	}
}

// reply is what one request came back with.
type reply struct {
	ok        bool
	latencyMS float64
	bytes     int
	resp      service.ScheduleResponse
}

// send posts request i and decodes the reply; any transport error or
// non-200 status is a failed operation, not a benchmark error.
func (w *serviceWorkload) send(i int) reply {
	start := time.Now()
	resp, err := w.client.Post(w.srv.URL+"/v1/schedule", "application/json", bytes.NewReader(w.bodies[i]))
	if err != nil {
		return reply{}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rp := reply{latencyMS: float64(time.Since(start).Nanoseconds()) / 1e6, bytes: len(body)}
	if err != nil || resp.StatusCode != http.StatusOK {
		return rp
	}
	rp.ok = json.Unmarshal(body, &rp.resp) == nil
	return rp
}

func (w *serviceWorkload) pass(clients int) (outcome, error) {
	replies := make([]reply, w.requests)
	before := w.svc.Stats()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < w.requests; i += clients {
				replies[i] = w.send(i)
			}
		}(c)
	}
	wg.Wait()
	after := w.svc.Stats()

	out := outcome{ops: w.requests, extra: make(map[string]float64)}
	h := sha256.New()
	var lat, exec, over []float64
	for i, rp := range replies {
		out.bytes += int64(rp.bytes)
		if want, ok := w.want[i]; ok && rp.ok {
			rp.ok = math.Float64bits(rp.resp.Makespan) == math.Float64bits(want.Makespan) &&
				sameFloats(rp.resp.AppMakespans, want.AppMakespans)
		}
		if !rp.ok {
			out.failed++
			continue
		}
		hashWord(h, uint64(i))
		hashWord(h, math.Float64bits(rp.resp.Makespan))
		hashFloats(h, rp.resp.AppMakespans)
		lat = append(lat, rp.latencyMS)
		exec = append(exec, rp.resp.ElapsedMS)
		over = append(over, rp.latencyMS-rp.resp.ElapsedMS)
	}
	out.digest = hex.EncodeToString(h.Sum(nil)[:8])
	out.extra["service.exec.ms_p50"] = percentile(exec, 50)
	out.extra["service.overhead.ms_p50"] = percentile(over, 50)
	out.extra["service.rejected"] = float64(after.Rejected - before.Rejected)
	// Stats' mean queue wait is cumulative; the pass's own mean follows
	// from the two snapshots' totals.
	ran0, ran1 := float64(before.Completed+before.Failed), float64(after.Completed+after.Failed)
	if ran1 > ran0 {
		out.extra["service.queue_wait.ms_mean"] = (after.MeanQueueWaitMS*ran1 - before.MeanQueueWaitMS*ran0) / (ran1 - ran0)
	}
	out.latencies = lat
	return out, nil
}

func (w *serviceWorkload) traceSlice(tr *tracer, budget time.Duration) (slice, error) {
	sl := slice{workload: w.cfg.workload, root: "service.direct", counts: make(map[string]float64)}
	start := time.Now()
	for n, i := range sliceOrder(w.requests) {
		if n >= minSliceOps && time.Since(start) > budget {
			break
		}
		// The request as a client sees it: the client span contains the
		// server's own elapsed_ms; what is left is HTTP, JSON and queue.
		root := tr.begin("service.request", -1, n)
		rp := w.send(i)
		tr.end(root)
		if !rp.ok {
			sl.failed++
			sl.ops++
			continue
		}
		sl.untraced += time.Duration(rp.resp.ElapsedMS * float64(time.Millisecond))

		// The same request composed directly, stage by stage.
		got, err := w.staged(tr, n, w.reqs[i], sl.counts)
		if err != nil {
			return sl, err
		}
		if math.Float64bits(got.Makespan) != math.Float64bits(rp.resp.Makespan) ||
			!sameFloats(got.AppMakespans, rp.resp.AppMakespans) || !sameFloats(got.Betas, rp.resp.Betas) {
			sl.failed++
		}
		sl.ops++
	}
	for _, s := range tr.spans {
		if s.Name == "service.direct" {
			sl.traced += time.Duration(s.End - s.Start)
		}
	}
	sl.layers = tr.layers(sl.ops)
	sl.spans = tr.spans
	return sl, nil
}

// staged is Service.Schedule's worker body with a span at every layer
// boundary: generate → betas → allocate → map → execute → summarise →
// encode.
func (w *serviceWorkload) staged(tr *tracer, op int, req service.ScheduleRequest, cnt map[string]float64) (*service.ScheduleResponse, error) {
	root := tr.begin("service.direct", -1, op)
	defer tr.end(root)
	id := tr.begin("daggen.generate", root, op)
	pf, graphs, err := w.materialize(req)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	cnt["daggen.graphs"] += float64(len(graphs))
	for _, g := range graphs {
		cnt["daggen.tasks"] += float64(len(g.Tasks))
	}
	strat := strategy.ES()
	ref := pf.ReferenceCluster()
	id = tr.begin("strategy.betas", root, op)
	betas := strat.Betas(graphs, ref)
	tr.end(id)
	apps := make([]*alloc.Allocation, len(graphs))
	for i, g := range graphs {
		id = tr.begin("alloc.compute", root, op)
		apps[i] = alloc.Compute(g, ref, betas[i], alloc.SCRAPMAX)
		tr.end(id)
		countGrowth(cnt, apps[i])
	}
	id = tr.begin("mapping.map", root, op)
	sched := mapping.Map(pf, apps, mapping.Options{})
	tr.end(id)
	cnt["mapping.placements"] += float64(len(sched.Placements))
	id = tr.begin("simexec.execute", root, op)
	ex := simexec.Execute(sched)
	tr.end(id)
	id = tr.begin("trace.summarize", root, op)
	out := &service.ScheduleResponse{
		Platform: pf.Name, Strategy: strat.Name(), Count: len(graphs),
		Betas: betas, AppMakespans: ex.AppMakespans, Makespan: ex.Makespan,
		Summary: trace.Summarize(sched), Utilization: trace.Utilization(sched),
	}
	tr.end(id)
	id = tr.begin("service.encode", root, op)
	b, err := json.Marshal(out)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("encoding staged response: %w", err)
	}
	cnt["service.resp_bytes"] += float64(len(b))
	return out, nil
}
