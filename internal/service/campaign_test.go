package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"

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
	if resp.Name != "smoke" || resp.Points != 4 || resp.RunPoints != 4 {
		t.Fatalf("bad response header: %+v", resp)
	}
	if len(resp.Tables) != 1 || len(resp.Results) != 0 {
		t.Fatalf("unsharded campaign: %d tables, %d results", len(resp.Tables), len(resp.Results))
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
	for _, workers := range []int{1, 4} {
		var merged []scenario.PointResult
		for _, shard := range []string{"1/2", "0/2"} {
			resp, err := s.Campaign(context.Background(), service.CampaignRequest{
				Spec:    json.RawMessage(smallCampaignSpec),
				Shard:   shard,
				Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Tables) != 0 || len(resp.Results) == 0 || resp.Shard != shard {
				t.Fatalf("shard response shape: %+v", resp)
			}
			// A sharded response is an ordered sink: point order, each
			// record what a scratch-less, memo-less RunPoint computes.
			for k, r := range resp.Results {
				if want := e.RunPoint(e.PointAt(r.Index)); !reflect.DeepEqual(r, want) {
					t.Fatalf("workers=%d shard %s: result %d differs from RunPoint", workers, shard, r.Index)
				}
				if k > 0 && resp.Results[k-1].Index >= r.Index {
					t.Fatalf("workers=%d shard %s: results out of point order", workers, shard)
				}
			}
			merged = append(merged, resp.Results...)
		}
		tables, err := e.Aggregate(merged)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tables[0].Result.Points[0].Unfairness, full.Tables[0].Rows[0].Unfairness) {
			t.Fatal("recombined shards differ from the unsharded service run")
		}
	}
}

// A point whose generator panics fails its own request — sharded or not,
// inline or on the sweep pool's goroutines — naming the point, and the
// service keeps serving.
func TestCampaignPanickingPointFailsOnlyItsRequest(t *testing.T) {
	s := newService(t, service.Options{Workers: 1})
	for _, workers := range []int{1, 4} {
		for shard, first := range map[string]string{"": "point 0 panicked", "1/2": "point 1 panicked"} {
			req := service.CampaignRequest{Spec: json.RawMessage(smallCampaignSpec), Shard: shard, Workers: workers}
			_, err := s.CampaignWithPanickingCell0(context.Background(), req)
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("workers=%d shard=%q: err = %v, want a panic conversion", workers, shard, err)
			}
			// Inline, the first point of the set is the one that fails;
			// the error names its global index, not its position.
			if workers == 1 && !strings.Contains(err.Error(), first) {
				t.Fatalf("shard=%q: err = %v, want %q", shard, err, first)
			}
			if _, err := s.Campaign(context.Background(), req); err != nil {
				t.Fatalf("workers=%d shard=%q: request after the panic: %v", workers, shard, err)
			}
		}
	}
}

func TestCampaignValidation(t *testing.T) {
	// Tight admission limits so the cardinality cases exercise rejection
	// without queuing real work; the structural caps are constants.
	s := newService(t, service.Options{Workers: 1, Limits: service.Limits{
		CampaignPoints:    2048,
		CampaignExpansion: 65536,
	}})
	cases := []struct {
		name string
		req  service.CampaignRequest
	}{
		{"missing spec", service.CampaignRequest{}},
		{"unknown field", service.CampaignRequest{Spec: json.RawMessage(`{"repz": 1}`)}},
		{"bad family", service.CampaignRequest{Spec: json.RawMessage(`{"families": [{"family": "weird"}]}`)}},
		{"nptgs cap", service.CampaignRequest{Spec: json.RawMessage(`{"nptgs": [65]}`)}},
		{"points cap", service.CampaignRequest{Spec: json.RawMessage(`{"reps": 200}`)}},
		{"grid explosion", service.CampaignRequest{Spec: json.RawMessage(
			`{"families": [{"family": "random", "tasks": {"from": 1, "to": 5000, "step": 1}, "widths": {"from": 0.001, "to": 1, "step": 0.001}}]}`)}},
		{"procs cap", service.CampaignRequest{Spec: json.RawMessage(
			`{"platform_specs": [{"name": "x", "clusters": [{"name": "c", "procs": 2000000000, "speed": 1}]}]}`)}},
		{"bad shard", service.CampaignRequest{Spec: json.RawMessage(smallCampaignSpec), Shard: "9/4"}},
		{"expansion cap even sharded", service.CampaignRequest{
			Spec: json.RawMessage(`{"reps": 4000}`), Shard: "0/100"}},
		{"strategy cap", service.CampaignRequest{Spec: json.RawMessage(
			`{"reps": 1, "nptgs": [2], "platforms": ["lille"], "strategies": [` +
				strings.Repeat(`{"name": "S"},`, 70) + `{"name": "ES"}]}`)}},
		{"trailing shard garbage", service.CampaignRequest{Spec: json.RawMessage(smallCampaignSpec), Shard: "0/2junk"}},
		{"events budget cap", service.CampaignRequest{Spec: json.RawMessage(
			`{"reps": 1, "nptgs": [2], "events": {"failures": [{"cluster": 0, "mttf": 10, "mttr": 2, "count": 200}]}}`)}},
		{"unknown reschedule policy", service.CampaignRequest{Spec: json.RawMessage(
			`{"reps": 1, "nptgs": [2], "events": {"cancels": [{"app": 0, "at": 1}], "policies": ["optimist"]}}`)}},
	}
	for _, tc := range cases {
		_, err := s.Campaign(context.Background(), tc.req)
		var verr *service.ValidationError
		if !errors.As(err, &verr) {
			t.Errorf("%s: error %v, want ValidationError", tc.name, err)
		}
	}
}

// TestCampaignLimitsDefaultAndOverride pins the streaming-era admission
// model: the default caps sit far above the old materialize-everything
// values (a 4000-point expansion is admissible by default), and a service
// can still be configured down to a tight budget.
func TestCampaignLimitsDefaultAndOverride(t *testing.T) {
	s := newService(t, service.Options{Workers: 1})
	lim := s.Options().Limits
	if lim.CampaignPoints != service.DefaultMaxCampaignPoints ||
		lim.CampaignExpansion != service.DefaultMaxCampaignExpansion ||
		lim.JobPoints != service.DefaultMaxJobPoints ||
		lim.JobBacklog != service.DefaultMaxJobBacklog {
		t.Fatalf("default limits not applied: %+v", lim)
	}
	if service.DefaultMaxCampaignPoints < 4000 {
		t.Fatalf("default campaign cap %d regressed below the old 2048-era scale", service.DefaultMaxCampaignPoints)
	}
	// A 4000-point expansion (reps 200, paper defaults) is admissible now;
	// run only a 1/1000 shard of it so the test stays fast.
	resp, err := s.Campaign(context.Background(), service.CampaignRequest{
		Spec:  json.RawMessage(`{"seed": 1, "reps": 200}`),
		Shard: "0/1000",
	})
	if err != nil {
		t.Fatalf("4000-point campaign rejected under default limits: %v", err)
	}
	if resp.Points != 4000 || resp.RunPoints != 4 {
		t.Fatalf("shard response %+v, want 4000 points / 4 run", resp)
	}

	// The same spec against a tight configured cap is refused up front.
	tight := newService(t, service.Options{Workers: 1, Limits: service.Limits{CampaignExpansion: 100}})
	_, err = tight.Campaign(context.Background(), service.CampaignRequest{
		Spec:  json.RawMessage(`{"seed": 1, "reps": 200}`),
		Shard: "0/1000",
	})
	var verr *service.ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("tight expansion cap not enforced: %v", err)
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
