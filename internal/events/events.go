// Package events models dynamic-scenario timelines: platform events
// (cluster failures, recoveries, speed changes) and workload events
// (application cancellation and resubmission) that mutate a scheduling
// scenario mid-execution. A Timeline is the fully materialized, sorted
// event list one scenario point runs under; a Spec is the declarative
// description campaign specs carry — scripted entries plus random
// failure/repair processes — from which per-point timelines are drawn
// deterministically (same spec, same seed: bit-identical timeline, on any
// shard, in any order).
//
// The package holds only data and pure derivations so every layer can
// share it without cycles: the online scheduler consumes timelines, the
// trace oracle validates against them, and the scenario engine generates
// them per point.
//
// Concurrency: Spec and Timeline values are immutable after construction;
// Generate is pure given its *rand.Rand (one source per caller).
package events

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Kind discriminates timeline events.
type Kind int

const (
	// ClusterDown takes a cluster out of service: its running and
	// committed placements are killed and nothing may be placed on it
	// until a ClusterUp.
	ClusterDown Kind = iota
	// ClusterUp returns a failed cluster to service.
	ClusterUp
	// SpeedChange sets a cluster's per-processor speed to Factor times its
	// original speed.
	SpeedChange
	// Cancel withdraws an application: its in-flight work is killed and
	// its completed work discarded.
	Cancel
	// Resubmit re-enters a previously cancelled application from scratch.
	Resubmit
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case ClusterDown:
		return "cluster-down"
	case ClusterUp:
		return "cluster-up"
	case SpeedChange:
		return "speed-change"
	case Cancel:
		return "cancel"
	case Resubmit:
		return "resubmit"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one timeline entry. Cluster indexes the platform's cluster
// list for platform events; App indexes the arrival order for workload
// events; Factor is the speed multiplier of SpeedChange events.
type Event struct {
	At      float64 `json:"at"`
	Kind    Kind    `json:"kind"`
	Cluster int     `json:"cluster,omitempty"`
	Factor  float64 `json:"factor,omitempty"`
	App     int     `json:"app,omitempty"`
}

// String implements fmt.Stringer.
func (e Event) String() string {
	switch e.Kind {
	case ClusterDown, ClusterUp:
		return fmt.Sprintf("t=%g %s cluster %d", e.At, e.Kind, e.Cluster)
	case SpeedChange:
		return fmt.Sprintf("t=%g %s cluster %d ×%g", e.At, e.Kind, e.Cluster, e.Factor)
	default:
		return fmt.Sprintf("t=%g %s app %d", e.At, e.Kind, e.App)
	}
}

// rank orders same-instant events deterministically: completions are
// handled by the scheduler first (outside this package), then recoveries
// (capacity returns before anything is decided), speed changes, failures
// (a task finishing exactly at the failure instant survives), cancels and
// resubmissions.
func (k Kind) rank() int {
	switch k {
	case ClusterUp:
		return 0
	case SpeedChange:
		return 1
	case ClusterDown:
		return 2
	case Cancel:
		return 3
	case Resubmit:
		return 4
	default:
		return 5
	}
}

// Timeline is a sorted event sequence: ascending time, same-instant events
// ordered by kind rank, insertion order last — a total, deterministic
// order.
type Timeline []Event

// Sort orders the timeline in place into its canonical order.
func (tl Timeline) Sort() {
	sort.SliceStable(tl, func(i, j int) bool {
		if tl[i].At != tl[j].At {
			return tl[i].At < tl[j].At
		}
		return tl[i].Kind.rank() < tl[j].Kind.rank()
	})
}

// Interval is a half-open time window [From, To); To is +Inf for a window
// that never closes (a permanent failure).
type Interval struct {
	From, To float64
}

// Overlaps reports whether the window overlaps the span [start, end) with
// tolerance tol (a span touching the boundary within tol does not count).
func (iv Interval) Overlaps(start, end, tol float64) bool {
	return start < iv.To-tol && end > iv.From+tol
}

// DownIntervals derives each cluster's outage windows from the timeline's
// ClusterDown/ClusterUp events: one slice of intervals per cluster index
// in [0, nClusters). A down with no matching up yields [t, +Inf); repeated
// downs of an already-down cluster (or ups of an up one) are ignored, the
// interpretation the scheduling engine applies.
func (tl Timeline) DownIntervals(nClusters int) [][]Interval {
	out := make([][]Interval, nClusters)
	downAt := make([]float64, nClusters)
	down := make([]bool, nClusters)
	for _, e := range tl {
		if e.Cluster < 0 || e.Cluster >= nClusters {
			continue
		}
		switch e.Kind {
		case ClusterDown:
			if !down[e.Cluster] {
				down[e.Cluster] = true
				downAt[e.Cluster] = e.At
			}
		case ClusterUp:
			if down[e.Cluster] {
				down[e.Cluster] = false
				out[e.Cluster] = append(out[e.Cluster], Interval{From: downAt[e.Cluster], To: e.At})
			}
		}
	}
	for k := range down {
		if down[k] {
			out[k] = append(out[k], Interval{From: downAt[k], To: math.Inf(1)})
		}
	}
	return out
}

// Restart records one engine rescheduling decision that discarded an
// application's completed work: from At on, every surviving placement of
// the application belongs to a fresh from-scratch execution and must not
// start earlier. The trace oracle validates final placements against these
// records.
type Restart struct {
	App int     `json:"app"`
	At  float64 `json:"at"`
}

// Spec is the declarative event-timeline description a campaign spec
// carries: scripted and process-driven cluster failures, scripted speed
// changes, and application cancellations with optional resubmission.
// Per-point timelines are drawn from it with Generate.
type Spec struct {
	// Failures lists cluster failure sources.
	Failures []FailureSpec `json:"failures,omitempty"`
	// SpeedChanges lists scripted cluster speed changes.
	SpeedChanges []SpeedChangeSpec `json:"speed_changes,omitempty"`
	// Cancels lists scripted application cancellations.
	Cancels []CancelSpec `json:"cancels,omitempty"`
	// Policies names the rescheduling policies to sweep ("restart",
	// "checkpoint"); each becomes one campaign cell axis value. Default
	// restart only.
	Policies []string `json:"policies,omitempty"`
}

// FailureSpec is one cluster failure source: either scripted (At set, with
// Duration 0 meaning the cluster never recovers) or a random
// failure/repair process (MTTF set: exponential time to failure, MTTR
// exponential repair time, Count failure cycles — the process form always
// recovers, so only scripted failures can be permanent).
type FailureSpec struct {
	// Cluster is the platform cluster index the failure applies to;
	// entries referencing clusters a point's platform does not have are
	// dropped for that point.
	Cluster int `json:"cluster"`
	// At is the scripted failure time in seconds.
	At float64 `json:"at,omitempty"`
	// Duration is the scripted outage length; 0 means permanent.
	Duration float64 `json:"duration,omitempty"`
	// MTTF is the mean time to failure of the process form, in seconds.
	MTTF float64 `json:"mttf,omitempty"`
	// MTTR is the mean time to repair of the process form, in seconds.
	MTTR float64 `json:"mttr,omitempty"`
	// Count is the number of failure cycles the process draws; default 1.
	Count int `json:"count,omitempty"`
}

// scripted reports whether the entry is the scripted (non-process) form.
func (f FailureSpec) scripted() bool { return f.MTTF == 0 }

// SpeedChangeSpec is one scripted cluster speed change: at time At the
// cluster's per-processor speed becomes Factor times its original speed
// (factors compose against the original, not the current, speed — the
// entry is idempotent and order-independent within an instant).
type SpeedChangeSpec struct {
	Cluster int     `json:"cluster"`
	At      float64 `json:"at"`
	Factor  float64 `json:"factor"`
}

// CancelSpec cancels application App (by arrival order) at time At and,
// when ResubmitAfter is positive, resubmits it from scratch at
// At+ResubmitAfter. Entries referencing applications a point does not
// have are dropped for that point.
type CancelSpec struct {
	App           int     `json:"app"`
	At            float64 `json:"at"`
	ResubmitAfter float64 `json:"resubmit_after,omitempty"`
}

// MaxTimelineEvents bounds the number of events one point's timeline may
// hold — an engine-level sanity cap mirroring the scenario expansion caps;
// services enforce tighter per-spec budgets on top of it.
const MaxTimelineEvents = 4096

// Empty reports whether the spec describes no event source at all. An
// empty spec behaves exactly like a nil one: the scenario engine treats it
// as "no events axis", so a spec with "events": {} expands — and runs —
// byte-identically to the same spec without the field.
func (s *Spec) Empty() bool {
	return s == nil || (len(s.Failures) == 0 && len(s.SpeedChanges) == 0 && len(s.Cancels) == 0)
}

// Count returns the worst-case number of events one point's timeline can
// hold, the quantity admission caps budget against.
func (s *Spec) Count() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, f := range s.Failures {
		cycles := f.Count
		if cycles <= 0 {
			cycles = 1
		}
		n += 2 * cycles
	}
	n += len(s.SpeedChanges)
	for _, c := range s.Cancels {
		n++
		if c.ResubmitAfter > 0 {
			n++
		}
	}
	return n
}

// finite reports x is a finite float.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Validate checks the structural constraints Generate relies on.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	for i, f := range s.Failures {
		if f.Cluster < 0 {
			return fmt.Errorf("events: failures[%d]: negative cluster index %d", i, f.Cluster)
		}
		switch {
		case f.scripted():
			if f.At < 0 || !finite(f.At) {
				return fmt.Errorf("events: failures[%d]: scripted failure time %g must be finite and non-negative", i, f.At)
			}
			if f.Duration < 0 || !finite(f.Duration) {
				return fmt.Errorf("events: failures[%d]: duration %g must be finite and non-negative", i, f.Duration)
			}
			if f.MTTR != 0 || f.Count != 0 {
				return fmt.Errorf("events: failures[%d]: mttr/count are process-form fields (set mttf)", i)
			}
		default:
			if f.MTTF < 0 || !finite(f.MTTF) {
				return fmt.Errorf("events: failures[%d]: mttf %g must be finite and positive", i, f.MTTF)
			}
			if f.MTTR <= 0 || !finite(f.MTTR) {
				return fmt.Errorf("events: failures[%d]: process failures need a positive finite mttr (only scripted failures may be permanent)", i)
			}
			if f.At != 0 || f.Duration != 0 {
				return fmt.Errorf("events: failures[%d]: at/duration are scripted-form fields (drop mttf)", i)
			}
			if f.Count < 0 || f.Count > MaxTimelineEvents/2 {
				return fmt.Errorf("events: failures[%d]: count %d outside [0,%d]", i, f.Count, MaxTimelineEvents/2)
			}
		}
	}
	for i, sc := range s.SpeedChanges {
		if sc.Cluster < 0 {
			return fmt.Errorf("events: speed_changes[%d]: negative cluster index %d", i, sc.Cluster)
		}
		if sc.At < 0 || !finite(sc.At) {
			return fmt.Errorf("events: speed_changes[%d]: time %g must be finite and non-negative", i, sc.At)
		}
		if sc.Factor <= 0 || !finite(sc.Factor) {
			return fmt.Errorf("events: speed_changes[%d]: factor %g must be finite and positive", i, sc.Factor)
		}
	}
	for i, c := range s.Cancels {
		if c.App < 0 {
			return fmt.Errorf("events: cancels[%d]: negative application index %d", i, c.App)
		}
		if c.At < 0 || !finite(c.At) {
			return fmt.Errorf("events: cancels[%d]: time %g must be finite and non-negative", i, c.At)
		}
		if c.ResubmitAfter < 0 || !finite(c.ResubmitAfter) {
			return fmt.Errorf("events: cancels[%d]: resubmit_after %g must be finite and non-negative", i, c.ResubmitAfter)
		}
	}
	for i, p := range s.Policies {
		if p == "" {
			return fmt.Errorf("events: policies[%d] is empty", i)
		}
	}
	if n := s.Count(); n > MaxTimelineEvents {
		return fmt.Errorf("events: spec draws up to %d events per point, cap is %d", n, MaxTimelineEvents)
	}
	return nil
}

// PermanentDowns returns the cluster indices (< nClusters) that some
// scripted entry fails permanently. The scenario engine refuses specs
// whose permanent failures would leave a platform with no cluster at all —
// a sweep must always be able to finish.
func (s *Spec) PermanentDowns(nClusters int) []int {
	if s == nil {
		return nil
	}
	perm := make(map[int]bool)
	for _, f := range s.Failures {
		if f.scripted() && f.Duration == 0 && f.Cluster < nClusters {
			perm[f.Cluster] = true
		}
	}
	out := make([]int, 0, len(perm))
	for k := range perm {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Generate draws one point's timeline: scripted entries verbatim, process
// entries from r — so the result is a pure function of (spec, seed).
// Entries referencing clusters ≥ nClusters or applications ≥ nApps are
// dropped (a spec sweeping platforms of different sizes applies each event
// only where its target exists). The returned timeline is in canonical
// order.
func (s *Spec) Generate(nClusters, nApps int, r *rand.Rand) Timeline {
	if s.Empty() {
		return nil
	}
	var tl Timeline
	for _, f := range s.Failures {
		// Process draws consume r even for dropped clusters, so the draws
		// of later entries do not depend on the point's platform size.
		if f.scripted() {
			if f.Cluster >= nClusters {
				continue
			}
			tl = append(tl, Event{At: f.At, Kind: ClusterDown, Cluster: f.Cluster})
			if f.Duration > 0 {
				tl = append(tl, Event{At: f.At + f.Duration, Kind: ClusterUp, Cluster: f.Cluster})
			}
			continue
		}
		cycles := f.Count
		if cycles <= 0 {
			cycles = 1
		}
		t := 0.0
		for c := 0; c < cycles; c++ {
			t += float64(r.ExpFloat64() * f.MTTF)
			down := t
			t += float64(r.ExpFloat64() * f.MTTR)
			if f.Cluster >= nClusters {
				continue
			}
			tl = append(tl, Event{At: down, Kind: ClusterDown, Cluster: f.Cluster})
			tl = append(tl, Event{At: t, Kind: ClusterUp, Cluster: f.Cluster})
		}
	}
	for _, sc := range s.SpeedChanges {
		if sc.Cluster >= nClusters {
			continue
		}
		tl = append(tl, Event{At: sc.At, Kind: SpeedChange, Cluster: sc.Cluster, Factor: sc.Factor})
	}
	for _, c := range s.Cancels {
		if c.App >= nApps {
			continue
		}
		tl = append(tl, Event{At: c.At, Kind: Cancel, App: c.App})
		if c.ResubmitAfter > 0 {
			tl = append(tl, Event{At: c.At + c.ResubmitAfter, Kind: Resubmit, App: c.App})
		}
	}
	tl.Sort()
	return tl
}
