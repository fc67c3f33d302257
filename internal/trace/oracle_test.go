package trace_test

// Tests of the schedule-invariant oracle over bare placement lists
// (ValidateDynamic): static schedules, release-time respect, and the
// per-cluster capacity sweep (exercised through the exported test hook,
// since exclusivity over valid processor indices subsumes it on
// well-formed placements).

import (
	"strings"
	"testing"

	"ptgsched/internal/dag"
	"ptgsched/internal/mapping"
	"ptgsched/internal/platform"
	"ptgsched/internal/trace"
)

// validateWith runs the oracle over s's placement list under releases
// (nil: a static schedule), graphs optionally cut to the first apps.
func validateWith(s *mapping.Schedule, apps int, releases []float64) error {
	graphs := make([]*dag.Graph, len(s.Apps))
	for i, app := range s.Apps {
		graphs[i] = app.Graph
	}
	return trace.ValidateDynamic(s.Platform, graphs[:apps], s.Placements, trace.Dynamic{Releases: releases})
}

func TestValidatePlacementsAcceptsMapperOutput(t *testing.T) {
	s := validSchedule(t)
	if err := validateWith(s, len(s.Apps), nil); err != nil {
		t.Fatalf("mapper output rejected: %v", err)
	}
}

func TestValidateReleasesAcceptsZeroReleases(t *testing.T) {
	s := validSchedule(t)
	if err := validateWith(s, len(s.Apps), make([]float64, len(s.Apps))); err != nil {
		t.Fatalf("zero releases rejected: %v", err)
	}
}

func TestValidateReleasesDetectsEarlyStart(t *testing.T) {
	s := validSchedule(t)
	releases := make([]float64, len(s.Apps))
	releases[0] = 1e9 // app 0 supposedly arrives far in the future
	err := validateWith(s, len(s.Apps), releases)
	if err == nil || !strings.Contains(err.Error(), "release") {
		t.Fatalf("early start not detected: %v", err)
	}
}

func TestValidateReleasesRejectsMismatchedLength(t *testing.T) {
	s := validSchedule(t)
	if err := validateWith(s, len(s.Apps), []float64{0}); err == nil {
		t.Fatal("mismatched release vector accepted")
	}
}

func TestValidatePlacementsDetectsUnknownApp(t *testing.T) {
	s := validSchedule(t)
	if err := validateWith(s, 1, nil); err == nil {
		t.Fatal("placements referencing dropped applications accepted")
	}
}

func TestCapacitySweepDetectsOverCommitment(t *testing.T) {
	pf := platform.New("tiny", true, platform.ClusterSpec{Name: "c", Procs: 4, Speed: 1})
	c := pf.Clusters[0]
	g := dag.New("g")
	t0 := g.AddTask("t0", 1, 1, 0)
	t1 := g.AddTask("t1", 1, 1, 0)
	// Two overlapping placements claiming 3 processors each on a
	// 4-processor cluster: 6 > 4 at t ∈ [0, 5).
	ps := []*mapping.Placement{
		{App: 0, Task: t0, Cluster: c, Procs: []int{0, 1, 2}, Start: 0, End: 10},
		{App: 0, Task: t1, Cluster: c, Procs: []int{0, 1, 2}, Start: 0, End: 5},
	}
	err := trace.ValidateCapacityForTest(pf, ps)
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("capacity violation not detected: %v", err)
	}
}

func TestCapacitySweepAllowsBackToBack(t *testing.T) {
	pf := platform.New("tiny", true, platform.ClusterSpec{Name: "c", Procs: 4, Speed: 1})
	c := pf.Clusters[0]
	g := dag.New("g")
	t0 := g.AddTask("t0", 1, 1, 0)
	t1 := g.AddTask("t1", 1, 1, 0)
	// Full-cluster use back to back, the second start within float noise
	// of the first end: one instant, not a violation.
	ps := []*mapping.Placement{
		{App: 0, Task: t0, Cluster: c, Procs: []int{0, 1, 2, 3}, Start: 0, End: 10},
		{App: 0, Task: t1, Cluster: c, Procs: []int{0, 1, 2, 3}, Start: 10 - 1e-12, End: 20},
	}
	if err := trace.ValidateCapacityForTest(pf, ps); err != nil {
		t.Fatalf("back-to-back full-cluster placements rejected: %v", err)
	}
}
