package scenario

// Tests of the dynamic-scenario expansion: the rescheduling-policy axis,
// digest-seeded per-point timelines (deterministic, shard-invariant,
// platform-aware), the empty-events ≡ no-events structural guarantee, and
// the sweep path through runDynamicPoint.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ptgsched/internal/clitest"
	"ptgsched/internal/events"
)

const dynSpecSrc = `{
  "name": "dyn", "seed": 7, "reps": 2, "nptgs": [2], "platforms": ["nancy"],
  "events": {
    "failures": [{"cluster": 0, "at": 50, "duration": 20}],
    "policies": ["restart", "checkpoint"]
  }
}`

func TestExpandAddsPolicyAxis(t *testing.T) {
	e := mustExpand(t, mustParse(t, dynSpecSrc))
	if len(e.Cells) != 2 {
		t.Fatalf("got %d cells, want one per policy", len(e.Cells))
	}
	wantLabels := []string{"random+dyn[restart]", "random+dyn[checkpoint]"}
	for i, c := range e.Cells {
		if c.Label != wantLabels[i] || c.Policy != strings.TrimSuffix(strings.TrimPrefix(wantLabels[i], "random+dyn["), "]") {
			t.Fatalf("cell %d: label %q policy %q", i, c.Label, c.Policy)
		}
	}
	// 2 reps × one nptgs value × one platform × 2 policies.
	if got, want := e.NumPoints(), 4; got != want {
		t.Fatalf("NumPoints %d, want %d", got, want)
	}
	cells, points, err := EstimatePoints(mustParse(t, dynSpecSrc))
	if err != nil {
		t.Fatal(err)
	}
	if cells != len(e.Cells) || points != e.NumPoints() {
		t.Fatalf("EstimatePoints %d/%d disagrees with expansion %d/%d",
			cells, points, len(e.Cells), e.NumPoints())
	}
}

func TestEventsDefaultPolicyIsRestart(t *testing.T) {
	e := mustExpand(t, mustParse(t, `{
	  "seed": 1, "reps": 1, "nptgs": [2],
	  "events": {"cancels": [{"app": 0, "at": 5}]}
	}`))
	for _, c := range e.Cells {
		if c.Policy != "restart" {
			t.Fatalf("cell %q: policy %q, want implicit restart", c.Label, c.Policy)
		}
	}
}

// TestEmptyEventsSpecExpandsAsStatic: an explicitly empty events block
// must change nothing structurally — same cells, labels, point names and
// seeds as the same spec without the block.
func TestEmptyEventsSpecExpandsAsStatic(t *testing.T) {
	static := mustExpand(t, mustParse(t, `{"seed": 3, "reps": 2, "nptgs": [2], "platforms": ["lille"]}`))
	empty := mustExpand(t, mustParse(t, `{"seed": 3, "reps": 2, "nptgs": [2], "platforms": ["lille"], "events": {}}`))
	if !reflect.DeepEqual(static.Cells, empty.Cells) {
		t.Fatal("empty events block changed the expansion's cells")
	}
	if static.NumPoints() != empty.NumPoints() {
		t.Fatalf("point counts differ: %d vs %d", static.NumPoints(), empty.NumPoints())
	}
	for i := 0; i < static.NumPoints(); i++ {
		a, b := static.PointAt(i), empty.PointAt(i)
		if a.Name != b.Name || a.Seed != b.Seed {
			t.Fatalf("point %d differs: %q/%d vs %q/%d", i, a.Name, a.Seed, b.Name, b.Seed)
		}
		if tl := empty.TimelineFor(b); tl != nil {
			t.Fatalf("point %d: empty events block yields a timeline: %v", i, tl)
		}
	}
	// And the point results are the byte-level guarantee's substrate:
	// identical runs.
	ra, rb := static.RunPoint(static.PointAt(0)), empty.RunPoint(empty.PointAt(0))
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("point 0 results differ:\n  %+v\n  %+v", ra, rb)
	}
}

// TestTimelineForDeterministicAndShardInvariant: per-point timelines
// depend only on (spec digest, point index) — re-expansion and
// shard-subset enumeration reproduce them exactly, and distinct points
// get distinct draws.
func TestTimelineForDeterministicAndShardInvariant(t *testing.T) {
	spec := mustParse(t, `{
	  "seed": 11, "reps": 3, "nptgs": [2, 5], "platforms": ["sophia"],
	  "events": {"failures": [{"cluster": 1, "mttf": 200, "mttr": 50, "count": 2}]}
	}`)
	a, b := mustExpand(t, spec), mustExpand(t, spec)
	sawDistinct := false
	var prev events.Timeline
	for i := 0; i < a.NumPoints(); i++ {
		ta, tb := a.TimelineFor(a.PointAt(i)), b.TimelineFor(b.PointAt(i))
		if !reflect.DeepEqual(ta, tb) {
			t.Fatalf("point %d: timeline differs across expansions:\n  %v\n  %v", i, ta, tb)
		}
		if len(ta) == 0 {
			t.Fatalf("point %d: failure process drew no events", i)
		}
		if prev != nil && !reflect.DeepEqual(prev, ta) {
			sawDistinct = true
		}
		prev = ta
	}
	if !sawDistinct {
		t.Fatal("every point drew the identical timeline; seeds are not per-point")
	}
}

// TestTimelineForDiffersAcrossSpecs: the digest seeds the draw, so a
// different spec (different seed field) yields different process
// timelines at the same point index.
func TestTimelineForDiffersAcrossSpecs(t *testing.T) {
	mk := func(seed string) events.Timeline {
		e := mustExpand(t, mustParse(t, `{
		  "seed": `+seed+`, "reps": 1, "nptgs": [2], "platforms": ["lille"],
		  "events": {"failures": [{"cluster": 0, "mttf": 100, "mttr": 30}]}
		}`))
		return e.TimelineFor(e.PointAt(0))
	}
	if reflect.DeepEqual(mk("1"), mk("2")) {
		t.Fatal("different specs drew identical timelines; digest does not feed the seed")
	}
}

// TestExpandRejectsUnsurvivablePermanentFailures: a spec whose scripted
// failures permanently take down every cluster of a platform can never
// finish a point there; Expand must refuse it up front.
func TestExpandRejectsUnsurvivablePermanentFailures(t *testing.T) {
	spec := mustParse(t, `{
	  "seed": 1, "reps": 1, "nptgs": [2],
	  "platform_specs": [{"name": "solo", "clusters": [{"name": "c0", "procs": 8, "speed": 1}]}],
	  "events": {"failures": [{"cluster": 0, "at": 10}]}
	}`)
	if _, err := Expand(spec); err == nil || !strings.Contains(err.Error(), "permanently") {
		t.Fatalf("unsurvivable spec accepted: %v", err)
	}
}

func TestParseSpecRejectsBadEvents(t *testing.T) {
	for _, src := range []string{
		`{"events": {"failures": [{"cluster": -1, "at": 5}]}}`,
		`{"events": {"failures": [{"cluster": 0, "at": 5, "mttf": 10, "mttr": 2}]}}`,
		`{"events": {"failures": [{"cluster": 0, "mttf": 10}]}}`,
		`{"events": {"speed_changes": [{"cluster": 0, "at": 1, "factor": 0}]}}`,
		`{"events": {"cancels": [{"app": -1, "at": 1}]}}`,
		`{"events": {"cancels": [{"app": 0, "at": 1}], "policies": ["optimist"]}}`,
	} {
		if _, err := ParseSpec([]byte(src)); err == nil {
			t.Errorf("bad events spec accepted: %s", src)
		}
	}
}

// TestDynamicSweepDeterministic: running the same dynamic point twice is
// bit-identical (the sweep path re-derives the timeline each run), and
// restart/checkpoint cells of the same scenario may legitimately differ.
func TestDynamicSweepDeterministic(t *testing.T) {
	e := mustExpand(t, mustParse(t, dynSpecSrc))
	p := e.PointAt(0)
	if !reflect.DeepEqual(e.RunPoint(p), e.RunPoint(p)) {
		t.Fatal("dynamic point reruns differ")
	}
	for s, mk := range e.RunPoint(p).Makespan {
		if mk <= 0 {
			t.Fatalf("strategy %d: non-positive makespan %g", s, mk)
		}
	}
}

// TestDynamicFig3CampaignMatchesGolden is the dynamic acceptance pin: a
// Fig. 3-scale campaign on Rennes with one scripted mid-run failure,
// swept under both rescheduling policies, must reproduce the checked-in
// JSONL golden byte for byte (regenerate with
// `go test ./internal/scenario -run TestDynamicFig3 -update`). Skipped
// under -short like the static Fig. 3 acceptance run.
func TestDynamicFig3CampaignMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 3-scale dynamic campaign; run without -short")
	}
	spec := mustParse(t, `{
	  "name": "fig3-failure", "seed": 42, "reps": 5, "nptgs": [5, 10],
	  "platforms": ["rennes"],
	  "events": {
	    "failures": [{"cluster": 0, "at": 60, "duration": 40}],
	    "policies": ["restart", "checkpoint"]
	  }
	}`)
	e := mustExpand(t, spec)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, mustRun(t, e, e.All(), 0)); err != nil {
		t.Fatal(err)
	}
	clitest.CheckGolden(t, "dynamic-fig3.golden", buf.Bytes())
}
