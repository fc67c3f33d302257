package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// invalidCampaignRequests are refused by CampaignRequest.resolve; they also
// seed FuzzAdmission.
var invalidCampaignRequests = []struct {
	name string
	req  CampaignRequest
}{
	{"missing spec", CampaignRequest{}},
	{"unknown field", CampaignRequest{Spec: json.RawMessage(`{"repz": 1}`)}},
	{"bad family", CampaignRequest{Spec: json.RawMessage(`{"families": [{"family": "weird"}]}`)}},
	{"nptgs cap", CampaignRequest{Spec: json.RawMessage(`{"nptgs": [65]}`)}},
	{"tasks cap", CampaignRequest{Spec: json.RawMessage(
		`{"reps": 1, "nptgs": [2], "platforms": ["lille"], "families": [{"family": "random", "tasks": [200000]}], "strategies": [{"name": "S"}]}`)}},
	{"points cap", CampaignRequest{Spec: json.RawMessage(`{"reps": 1000}`)}},
	{"grid explosion", CampaignRequest{Spec: json.RawMessage(
		`{"families": [{"family": "random", "tasks": {"from": 1, "to": 1000, "step": 1}, "widths": {"from": 0.001, "to": 1, "step": 0.001}}]}`)}},
	{"procs cap", CampaignRequest{Spec: json.RawMessage(
		`{"platform_specs": [{"name": "x", "clusters": [{"name": "c", "procs": 2000000000, "speed": 1}]}]}`)}},
	{"strategy cap", CampaignRequest{Spec: json.RawMessage(
		`{"reps": 1, "nptgs": [2], "platforms": ["lille"], "strategies": [` +
			strings.Repeat(`{"name": "S"},`, 70) + `{"name": "ES"}]}`)}},
	{"events budget cap", CampaignRequest{Spec: json.RawMessage(
		`{"reps": 1, "nptgs": [2], "events": {"failures": [{"cluster": 0, "mttf": 10, "mttr": 2, "count": 200}]}}`)}},
	{"unknown reschedule policy", CampaignRequest{Spec: json.RawMessage(
		`{"reps": 1, "nptgs": [2], "events": {"cancels": [{"app": 0, "at": 1}], "policies": ["optimist"]}}`)}},
}

func TestCampaignValidation(t *testing.T) {
	// Every case fails on the caller's goroutine, before a queue slot.
	s := New(Options{Workers: 1})
	defer s.Close()
	for _, tc := range invalidCampaignRequests {
		_, err := s.Campaign(context.Background(), tc.req)
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Errorf("%s: error %v, want ValidationError", tc.name, err)
		}
		// Every structural cap admits the grid explosion; the cell count
		// must refuse it before it is expanded.
		if tc.name == "grid explosion" && !strings.Contains(fmt.Sprint(err), "expands to over") {
			t.Errorf("%s: error %v, want the expansion refused", tc.name, err)
		}
	}
	if st := s.Stats(); st.Invalid != uint64(len(invalidCampaignRequests)) || st.Completed+st.Failed != 0 {
		t.Fatalf("accounting %+v, want %d invalid and nothing run", st, len(invalidCampaignRequests))
	}
}

// FuzzAdmission decodes any body the way the HTTP layer does, as a
// CampaignRequest or a JobRequest, and resolves it. Resolution either
// fails or admits a point set that lies inside the expansion and holds at
// most the kind's cap; it never panics.
func FuzzAdmission(f *testing.F) {
	add := func(v any) {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(false, body)
		f.Add(true, body)
	}
	for _, tc := range invalidCampaignRequests {
		add(tc.req)
	}
	for _, req := range invalidJobRequests {
		add(req)
	}
	add(JobRequest{Spec: json.RawMessage(jobSpec), Shard: "1/3", Workers: 2})

	f.Fuzz(func(t *testing.T, job bool, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if !job {
			var req CampaignRequest
			if dec.Decode(&req) != nil {
				return
			}
			e, err := req.resolve()
			if err != nil {
				return
			}
			if n := e.NumPoints(); n > MaxCampaignPoints {
				t.Fatalf("campaign admitted %d points, cap is %d", n, MaxCampaignPoints)
			}
			return
		}
		var req JobRequest
		if dec.Decode(&req) != nil {
			return
		}
		e, set, workers, err := req.resolve()
		if err != nil {
			return
		}
		if n := e.NumPoints(); n > MaxJobPoints {
			t.Fatalf("job admitted an expansion of %d points, cap is %d", n, MaxJobPoints)
		}
		if set.Len() > e.NumPoints() || (set.Len() > 0 && (set.At(0) < 0 || set.At(set.Len()-1) >= e.NumPoints())) {
			t.Fatalf("job set of %d points (%v) outside its expansion of %d", set.Len(), set, e.NumPoints())
		}
		if workers < 1 || workers > runtime.GOMAXPROCS(0) {
			t.Fatalf("job runs on %d workers, want [1, GOMAXPROCS]", workers)
		}
	})
}
