package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"ptgsched/internal/query"
	"ptgsched/internal/scenario"
	"ptgsched/internal/service"
)

// smallCampaignSpec is a fast deterministic sweep: 1 platform × 2 NPTGs ×
// 2 reps on Strassen PTGs = 8 points.
const smallCampaignSpec = `{
	"name": "smoke",
	"seed": 9,
	"reps": 2,
	"nptgs": [2, 3],
	"platforms": ["lille"],
	"families": [{"family": "strassen"}]
}`

func TestCampaignEndToEnd(t *testing.T) {
	s := newService(t, service.Options{Workers: 1})
	resp, err := s.Campaign(context.Background(), service.CampaignRequest{
		Spec: json.RawMessage(smallCampaignSpec),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Name != "smoke" || resp.Points != 4 {
		t.Fatalf("bad response header: %+v", resp)
	}
	if len(resp.Tables) != 1 {
		t.Fatalf("campaign: %d tables, want 1", len(resp.Tables))
	}
	tb := resp.Tables[0]
	if tb.Family != "strassen" || len(tb.Rows) != 2 || len(tb.Labels) != 6 {
		t.Fatalf("bad table: %+v", tb)
	}
	for _, row := range tb.Rows {
		if row.Runs != 2 {
			t.Fatalf("row aggregates %d runs, want 2", row.Runs)
		}
		for s, m := range row.AvgMakespan {
			if m <= 0 {
				t.Fatalf("row n=%d strategy %d makespan %g", row.NPTGs, s, m)
			}
		}
	}

	// The same request again is deterministic.
	again, err := s.Campaign(context.Background(), service.CampaignRequest{
		Spec: json.RawMessage(smallCampaignSpec),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Tables, again.Tables) {
		t.Fatal("campaign response not deterministic")
	}
}

// A campaign's per-point records come from jobs: two shard jobs stream the
// records a scratch-less, memo-less RunPoint computes, in point order, and
// together aggregate to the synchronous campaign's tables.
func TestCampaignShardsRecombineThroughService(t *testing.T) {
	s := newService(t, service.Options{Workers: 2})
	full, err := s.Campaign(context.Background(), service.CampaignRequest{
		Spec: json.RawMessage(smallCampaignSpec),
	})
	if err != nil {
		t.Fatal(err)
	}

	spec, err := scenario.ParseSpec([]byte(smallCampaignSpec))
	if err != nil {
		t.Fatal(err)
	}
	e, err := scenario.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var merged []scenario.PointResult
	for _, shard := range []string{"1/2", "0/2"} {
		st, err := s.SubmitJob(service.JobRequest{
			Spec:  json.RawMessage(smallCampaignSpec),
			Shard: shard,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st, err = s.WaitJob(ctx, st.ID); err != nil || st.State != service.JobDone {
			t.Fatalf("shard %s: %+v, %v", shard, st, err)
		}
		var buf bytes.Buffer
		if err := s.JobResults(st.ID, query.Query{To: query.NoLimit}, &buf); err != nil {
			t.Fatal(err)
		}
		results, err := scenario.ReadJSONL(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != st.Points {
			t.Fatalf("shard %s: %d results, want %d", shard, len(results), st.Points)
		}
		for k, r := range results {
			if want := e.RunPoint(e.PointAt(r.Index)); !reflect.DeepEqual(r, want) {
				t.Fatalf("shard %s: result %d differs from RunPoint", shard, r.Index)
			}
			if k > 0 && results[k-1].Index >= r.Index {
				t.Fatalf("shard %s: results out of point order", shard)
			}
		}
		merged = append(merged, results...)
	}
	tables, err := e.Aggregate(merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(full.Tables) {
		t.Fatalf("%d recombined tables, campaign has %d", len(tables), len(full.Tables))
	}
	for i, tb := range tables {
		for j, pt := range tb.Result.Points {
			row := full.Tables[i].Rows[j]
			got := service.CampaignRow{
				NPTGs:          pt.NPTGs,
				Runs:           pt.Runs,
				Unfairness:     pt.Unfairness,
				AvgMakespan:    pt.AvgMakespan,
				RelMakespan:    pt.RelMakespan,
				UnfairnessStd:  pt.UnfairnessStd,
				RelMakespanStd: pt.RelMakespanStd,
			}
			if !reflect.DeepEqual(got, row) {
				t.Fatalf("table %d row %d: recombined shards %+v, campaign %+v", i, j, got, row)
			}
		}
	}
}

// A point whose generator panics fails its own request, naming the point,
// and the service keeps serving. The sweep runs inline on the request's
// worker, so the first point is the one that fails; jobs sweep the same
// way (the job test of the same name), and the sweep pool's goroutines
// are covered by internal/scenario's determinism tests.
func TestCampaignPanickingPointFailsOnlyItsRequest(t *testing.T) {
	s := newService(t, service.Options{Workers: 1})
	req := service.CampaignRequest{Spec: json.RawMessage(smallCampaignSpec)}
	_, err := s.CampaignWithPanickingCell0(context.Background(), req)
	if err == nil || !strings.Contains(err.Error(), "point 0 panicked") {
		t.Fatalf("err = %v, want the panic of point 0", err)
	}
	if _, err := s.Campaign(context.Background(), req); err != nil {
		t.Fatalf("request after the panic: %v", err)
	}
}

// A synchronous campaign past its request deadline stops sweeping at the
// next point boundary: it answers DeadlineExceeded, is counted expired
// once, and hands the worker back, so the schedule request queued right
// behind it is served within its own deadline instead of timing out too.
func TestCampaignStopsSweepingAtItsDeadline(t *testing.T) {
	s := newService(t, service.Options{Workers: 1, RequestTimeout: time.Second})
	// 500 random-family points: several seconds of work on one worker.
	long := `{"name": "long", "seed": 1, "reps": 250, "nptgs": [10],
		"platforms": ["lille", "sophia"], "families": [{"family": "random"}]}`
	_, err := s.Campaign(context.Background(), service.CampaignRequest{Spec: json.RawMessage(long)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("campaign past its deadline: err = %v, want DeadlineExceeded", err)
	}
	if _, err := s.Schedule(context.Background(), smallReq(1)); err != nil {
		t.Fatalf("schedule behind the expired campaign: %v", err)
	}
	if st := s.Stats(); st.Expired != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("accounting %+v, want 1 expired campaign and 1 completed schedule", st)
	}
}

// TestCampaignLimitsDefaultAndOverride pins the admission caps: a
// 4,000-point expansion (reps 200, paper defaults) is admissible as a job
// shard, and a campaign over MaxCampaignPoints (reps 1000, 20,000 points)
// or a job over MaxJobPoints, sharded or not, is refused by the arithmetic
// count before anything is expanded.
func TestCampaignLimitsDefaultAndOverride(t *testing.T) {
	if service.MaxCampaignPoints != 16_384 || service.MaxJobPoints != 1<<20 || service.MaxJobBacklog != 2<<20 {
		t.Fatalf("caps %d/%d/%d moved", service.MaxCampaignPoints, service.MaxJobPoints, service.MaxJobBacklog)
	}
	s := newService(t, service.Options{Workers: 1})
	// Run only a 1/1000 shard of it so the test stays fast.
	st, err := s.SubmitJob(service.JobRequest{
		Spec:  json.RawMessage(`{"seed": 1, "reps": 200}`),
		Shard: "0/1000",
	})
	if err != nil {
		t.Fatalf("4000-point job shard rejected: %v", err)
	}
	if st.Points != 4 {
		t.Fatalf("shard status %+v, want 4 points", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st, err = s.WaitJob(ctx, st.ID); err != nil || st.State != service.JobDone || st.Completed != 4 {
		t.Fatalf("shard job %+v, %v", st, err)
	}

	var verr *service.ValidationError
	_, err = s.Campaign(context.Background(), service.CampaignRequest{Spec: json.RawMessage(`{"seed": 1, "reps": 1000}`)})
	if !errors.As(err, &verr) || !strings.Contains(err.Error(), "expands to 20000 points, server cap is 16384") {
		t.Fatalf("20,000-point campaign: %v, want the arithmetic cap", err)
	}
	_, err = s.SubmitJob(service.JobRequest{Spec: json.RawMessage(`{"seed": 1, "reps": 100000}`), Shard: "0/1000"})
	if !errors.As(err, &verr) || !strings.Contains(err.Error(), "expands to 2000000 points, server cap is 1048576") {
		t.Fatalf("2,000,000-point job shard: %v, want the arithmetic cap", err)
	}
}

// A campaign carries no shard selector or worker count, a job no
// progress partition or worker count, and a schedule request no mapping
// ordering or packing switch (it always runs the paper's mapper): on the
// wire those are unknown fields, refused as bad requests before they reach
// the service.
func TestRemovedRequestKnobsAreBadRequests(t *testing.T) {
	s := newService(t, service.Options{Workers: 1})
	h := service.Handler(s)
	for _, tc := range []struct{ path, body string }{
		{"/v1/campaign", `{"spec": ` + smallCampaignSpec + `, "shard": "0/2"}`},
		{"/v1/campaign", `{"spec": ` + smallCampaignSpec + `, "workers": 2}`},
		{"/v1/jobs", `{"spec": ` + smallCampaignSpec + `, "shards": 2}`},
		{"/v1/jobs", `{"spec": ` + smallCampaignSpec + `, "workers": 2}`},
		{"/v1/schedule", `{"count": 2, "ordering": "global"}`},
		{"/v1/schedule", `{"count": 2, "no_packing": true}`},
	} {
		w := do(h, http.MethodPost, tc.path, tc.body)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("POST %s %s: status %d, want 400", tc.path, tc.body, w.Code)
		}
		if msg, code := errorEnvelope(t, w); code != service.CodeBadRequest || !strings.Contains(msg, "unknown field") {
			t.Fatalf("POST %s: %s %q, want %s naming the unknown field", tc.path, code, msg, service.CodeBadRequest)
		}
	}
	if st := s.Stats(); st.Completed+st.Failed != 0 || len(s.Jobs()) != 0 {
		t.Fatalf("a refused request ran: %+v", st)
	}
}

func TestCampaignOverHTTP(t *testing.T) {
	s := newService(t, service.Options{Workers: 1})
	h := service.Handler(s)
	w := postJSON(t, h, "/v1/campaign", service.CampaignRequest{
		Spec: json.RawMessage(smallCampaignSpec),
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp service.CampaignResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Tables) != 1 || resp.Points != 4 {
		t.Fatalf("wire response: %+v", resp)
	}
	st := s.Stats()
	if st.CompletedByKind["campaign"] != 1 {
		t.Fatalf("campaign completions not counted: %+v", st.CompletedByKind)
	}
}
