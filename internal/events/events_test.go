package events_test

// Unit tests of the event-timeline layer: canonical ordering, down-window
// derivation, worst-case event budgeting, spec validation, and the
// determinism and platform-size independence of Generate.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ptgsched/internal/events"
)

func TestSortCanonicalOrder(t *testing.T) {
	tl := events.Timeline{
		{At: 5, Kind: events.Resubmit, App: 0},
		{At: 5, Kind: events.ClusterUp, Cluster: 1},
		{At: 2, Kind: events.Cancel, App: 0},
		{At: 5, Kind: events.ClusterDown, Cluster: 0},
		{At: 5, Kind: events.SpeedChange, Cluster: 0, Factor: 2},
	}
	tl.Sort()
	want := []events.Kind{events.Cancel, events.ClusterUp, events.SpeedChange, events.ClusterDown, events.Resubmit}
	for i, ev := range tl {
		if ev.Kind != want[i] {
			t.Fatalf("position %d: %s, want %s (full: %v)", i, ev.Kind, want[i], tl)
		}
	}
}

func TestDownIntervals(t *testing.T) {
	tl := events.Timeline{
		{At: 10, Kind: events.ClusterDown, Cluster: 0},
		{At: 12, Kind: events.ClusterDown, Cluster: 0}, // repeat: ignored
		{At: 20, Kind: events.ClusterUp, Cluster: 0},
		{At: 25, Kind: events.ClusterUp, Cluster: 0},   // already up: ignored
		{At: 30, Kind: events.ClusterDown, Cluster: 0}, // never recovers
		{At: 5, Kind: events.ClusterDown, Cluster: 2},
		{At: 6, Kind: events.ClusterUp, Cluster: 2},
		{At: 1, Kind: events.ClusterDown, Cluster: 9}, // out of range: dropped
	}
	tl.Sort()
	ivs := tl.DownIntervals(3)
	if len(ivs[0]) != 2 || ivs[0][0] != (events.Interval{From: 10, To: 20}) ||
		ivs[0][1].From != 30 || !math.IsInf(ivs[0][1].To, 1) {
		t.Fatalf("cluster 0 windows: %v", ivs[0])
	}
	if len(ivs[1]) != 0 {
		t.Fatalf("cluster 1 windows: %v", ivs[1])
	}
	if len(ivs[2]) != 1 || ivs[2][0] != (events.Interval{From: 5, To: 6}) {
		t.Fatalf("cluster 2 windows: %v", ivs[2])
	}
}

func TestIntervalOverlapsBoundary(t *testing.T) {
	iv := events.Interval{From: 10, To: 20}
	const tol = 1e-9
	if iv.Overlaps(0, 10, tol) || iv.Overlaps(20, 30, tol) {
		t.Fatal("boundary contact counted as overlap")
	}
	if !iv.Overlaps(19, 21, tol) || !iv.Overlaps(0, 30, tol) || !iv.Overlaps(12, 13, tol) {
		t.Fatal("real overlap missed")
	}
}

func TestSpecEmptyAndCount(t *testing.T) {
	var nilSpec *events.Spec
	if !nilSpec.Empty() || nilSpec.Count() != 0 {
		t.Fatal("nil spec not empty")
	}
	if !(&events.Spec{Policies: []string{"restart"}}).Empty() {
		t.Fatal("policies alone should not make a spec non-empty")
	}
	s := &events.Spec{
		Failures: []events.FailureSpec{
			{Cluster: 0, At: 5, Duration: 2},            // down + up
			{Cluster: 1, MTTF: 100, MTTR: 10, Count: 3}, // 3 cycles
		},
		SpeedChanges: []events.SpeedChangeSpec{{Cluster: 0, At: 1, Factor: 2}},
		Cancels: []events.CancelSpec{
			{App: 0, At: 1},                   // cancel only
			{App: 1, At: 2, ResubmitAfter: 3}, // cancel + resubmit
		},
	}
	if s.Empty() {
		t.Fatal("populated spec reported empty")
	}
	if got, want := s.Count(), 2+6+1+1+2; got != want {
		t.Fatalf("Count %d, want %d", got, want)
	}
}

func TestSpecValidateRejections(t *testing.T) {
	cases := []events.Spec{
		{Failures: []events.FailureSpec{{Cluster: -1, At: 1}}},
		{Failures: []events.FailureSpec{{Cluster: 0, At: math.Inf(1)}}},
		{Failures: []events.FailureSpec{{Cluster: 0, At: 1, Duration: -2}}},
		{Failures: []events.FailureSpec{{Cluster: 0, At: 1, MTTF: 5, MTTR: 1}}}, // both forms
		{Failures: []events.FailureSpec{{Cluster: 0, MTTF: 5}}},                 // process without mttr
		{Failures: []events.FailureSpec{{Cluster: 0, MTTF: 5, MTTR: 1, Count: events.MaxTimelineEvents}}},
		{SpeedChanges: []events.SpeedChangeSpec{{Cluster: 0, At: 1, Factor: 0}}},
		{SpeedChanges: []events.SpeedChangeSpec{{Cluster: 0, At: -1, Factor: 1}}},
		{Cancels: []events.CancelSpec{{App: -1, At: 1}}},
		{Cancels: []events.CancelSpec{{App: 0, At: 1, ResubmitAfter: math.NaN()}}},
		{Cancels: []events.CancelSpec{{App: 0, At: 1}}, Policies: []string{""}},
	}
	for i := range cases {
		if err := cases[i].Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted: %+v", i, cases[i])
		}
	}
	ok := events.Spec{Failures: []events.FailureSpec{{Cluster: 0, At: 5}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid permanent scripted failure rejected: %v", err)
	}
}

func TestPermanentDowns(t *testing.T) {
	s := &events.Spec{Failures: []events.FailureSpec{
		{Cluster: 2, At: 5},              // permanent
		{Cluster: 0, At: 1, Duration: 3}, // recovers
		{Cluster: 1, MTTF: 10, MTTR: 2},  // process: always recovers
		{Cluster: 7, At: 1},              // beyond the platform: not counted
	}}
	if got := s.PermanentDowns(3); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("PermanentDowns %v, want [2]", got)
	}
}

// TestGenerateDeterministicAndSizeIndependent: the same seed reproduces
// the same timeline, and a process entry targeting a cluster the platform
// lacks still consumes its draws, so later entries land identically on
// any platform size.
func TestGenerateDeterministicAndSizeIndependent(t *testing.T) {
	s := &events.Spec{Failures: []events.FailureSpec{
		{Cluster: 5, MTTF: 100, MTTR: 10}, // exists only on big platforms
		{Cluster: 0, MTTF: 50, MTTR: 5},
	}}
	gen := func(nClusters int) events.Timeline {
		return s.Generate(nClusters, 1, rand.New(rand.NewSource(42)))
	}
	if !reflect.DeepEqual(gen(2), gen(2)) {
		t.Fatal("same seed drew different timelines")
	}
	small, big := gen(2), gen(8)
	// On the small platform the cluster-5 entry is dropped; the cluster-0
	// events must still be exactly the big platform's cluster-0 events.
	var bigC0 events.Timeline
	for _, ev := range big {
		if ev.Cluster == 0 {
			bigC0 = append(bigC0, ev)
		}
	}
	if !reflect.DeepEqual(small, bigC0) {
		t.Fatalf("cluster-0 draws depend on platform size:\n  small: %v\n  big c0: %v", small, bigC0)
	}
	for i := 1; i < len(small); i++ {
		prev, cur := small[i-1], small[i]
		if cur.At < prev.At {
			t.Fatalf("generated timeline not sorted: %v", small)
		}
	}
}

func TestGenerateScriptedAndWorkloadEvents(t *testing.T) {
	s := &events.Spec{
		Failures:     []events.FailureSpec{{Cluster: 1, At: 10, Duration: 5}},
		SpeedChanges: []events.SpeedChangeSpec{{Cluster: 0, At: 3, Factor: 0.5}},
		Cancels:      []events.CancelSpec{{App: 2, At: 7, ResubmitAfter: 4}, {App: 9, At: 1}},
	}
	tl := s.Generate(2, 3, rand.New(rand.NewSource(1)))
	// App 9 does not exist on a 3-app point; everything else lands.
	want := events.Timeline{
		{At: 3, Kind: events.SpeedChange, Cluster: 0, Factor: 0.5},
		{At: 7, Kind: events.Cancel, App: 2},
		{At: 10, Kind: events.ClusterDown, Cluster: 1},
		{At: 11, Kind: events.Resubmit, App: 2},
		{At: 15, Kind: events.ClusterUp, Cluster: 1},
	}
	if !reflect.DeepEqual(tl, want) {
		t.Fatalf("generated timeline:\n  got  %v\n  want %v", tl, want)
	}
}

// TestKindAndEventStrings pins the text a timeline prints: every kind's
// name, an unknown kind, and each of Event.String's three shapes.
func TestKindAndEventStrings(t *testing.T) {
	for _, tc := range []struct{ got, want string }{
		{events.ClusterDown.String(), "cluster-down"},
		{events.ClusterUp.String(), "cluster-up"},
		{events.SpeedChange.String(), "speed-change"},
		{events.Cancel.String(), "cancel"},
		{events.Resubmit.String(), "resubmit"},
		{events.Kind(99).String(), "Kind(99)"},
		{events.Event{At: 1.5, Kind: events.ClusterDown, Cluster: 2}.String(), "t=1.5 cluster-down cluster 2"},
		{events.Event{At: 3, Kind: events.SpeedChange, Cluster: 1, Factor: 0.5}.String(), "t=3 speed-change cluster 1 ×0.5"},
		{events.Event{At: 4, Kind: events.Cancel, App: 7}.String(), "t=4 cancel app 7"},
	} {
		if tc.got != tc.want {
			t.Errorf("got %q, want %q", tc.got, tc.want)
		}
	}
}
