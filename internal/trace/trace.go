// Package trace provides schedule inspection tools: structural validation
// of mapped schedules (processor exclusivity, per-cluster capacity,
// precedence with redistribution delays, allocation bounds, release-time
// respect for online schedules), a text Gantt renderer, and JSON export.
//
// The validation entry points form the schedule-invariant oracle behind the
// property-based suite (FuzzScheduleInvariants in internal/scenario): every
// schedule any registered strategy produces must pass it.
//
// Concurrency: all functions only read the schedule they are given; they
// are safe to call concurrently on distinct schedules, or on one schedule
// that is no longer being mutated.
package trace

import (
	"fmt"
	"sort"

	"ptgsched/internal/dag"
	"ptgsched/internal/events"
	"ptgsched/internal/mapping"
	"ptgsched/internal/platform"
)

// tol absorbs floating-point noise in time comparisons.
const tol = 1e-9

// Validate checks that a schedule is executable:
//
//  1. every task of every application is placed exactly once;
//  2. no processor runs two tasks at overlapping times, and at no instant
//     does a cluster run more processors than it has;
//  3. every task starts no earlier than each predecessor's end plus the
//     contention-free redistribution estimate between their clusters;
//  4. placements use at least one processor, at most the cluster's size,
//     and have non-negative spans.
//
// It returns the first violation found, or nil. It is ValidateDynamic
// under the zero Dynamic, after checking the schedule's task→placement
// index against its placement list.
func Validate(s *mapping.Schedule) error {
	graphs := make([]*dag.Graph, len(s.Apps))
	for i, app := range s.Apps {
		graphs[i] = app.Graph
	}
	for _, p := range s.Placements {
		if s.PlacementOf(p.Task) != p {
			return fmt.Errorf("trace: placement index out of sync for task %q", p.Task.Name)
		}
	}
	return ValidateDynamic(s.Platform, graphs, s.Placements, Dynamic{})
}

// Dynamic is the dynamic-scenario context the oracle validates a
// placement list against. The zero value is a static schedule: no
// release times and no events.
type Dynamic struct {
	// DownIntervals gives, per platform cluster index, the outage windows
	// of the run's event timeline (events.Timeline.DownIntervals); no
	// surviving placement may overlap a down window of its cluster.
	DownIntervals [][]events.Interval
	// Releases, when non-nil, are per-application submission times that
	// no placement of the application may precede.
	Releases []float64
	// Cancelled marks applications withdrawn and never resubmitted; a
	// cancelled application must have no placements at all, and its tasks
	// are exempt from the completeness check.
	Cancelled []bool
	// Restarts are the engine's from-scratch restart records: every
	// placement of application r.App must start at or after r.At (all
	// earlier work was discarded).
	Restarts []events.Restart
}

// ValidateDynamic is the schedule-invariant oracle over a bare placement
// list: graphs[i] is application i's PTG (matched against each
// placement's App field). It validates placement uniqueness and
// completeness, allotment bounds (1..cluster size, distinct in-range
// processor indices), per-processor exclusivity, an explicit per-cluster
// capacity sweep, precedence with contention-free redistribution
// estimates and release-time respect; under a dynamic scenario also no
// placement overlapping a down window of its cluster, no placement of a
// cancelled application, and restart-time respect (releases carried across
// reschedules). The online scheduler's results are validated directly
// from their placement lists. It returns the first violation found, or
// nil.
func ValidateDynamic(pf *platform.Platform, graphs []*dag.Graph, placements []*mapping.Placement, dyn Dynamic) error {
	releases := dyn.Releases
	if releases != nil && len(releases) != len(graphs) {
		return fmt.Errorf("trace: %d release times for %d applications", len(releases), len(graphs))
	}
	if dyn.Cancelled != nil && len(dyn.Cancelled) != len(graphs) {
		return fmt.Errorf("trace: %d cancellation marks for %d applications", len(dyn.Cancelled), len(graphs))
	}
	// restartAt[i]: the application's latest from-scratch restart. A
	// restart supersedes the original release as the effective release of
	// the surviving placements — a resubmission is a new submission, which
	// may even precede the original arrival it replaced.
	restartAt := make([]float64, len(graphs))
	hasRestart := make([]bool, len(graphs))
	for _, r := range dyn.Restarts {
		if r.App < 0 || r.App >= len(graphs) {
			return fmt.Errorf("trace: restart references unknown application %d", r.App)
		}
		if !hasRestart[r.App] || r.At > restartAt[r.App] {
			restartAt[r.App] = r.At
		}
		hasRestart[r.App] = true
	}

	// 1. Placement uniqueness and completeness per application; cancelled
	// applications must have left nothing behind.
	byApp := make([]map[int]*mapping.Placement, len(graphs))
	for i := range byApp {
		byApp[i] = make(map[int]*mapping.Placement, len(graphs[i].Tasks))
	}
	for _, p := range placements {
		if p.App < 0 || p.App >= len(graphs) {
			return fmt.Errorf("trace: %s references unknown application %d", p, p.App)
		}
		if dyn.Cancelled != nil && dyn.Cancelled[p.App] {
			return fmt.Errorf("trace: %s belongs to cancelled application %d", p, p.App)
		}
		if prev := byApp[p.App][p.Task.ID]; prev != nil {
			return fmt.Errorf("trace: app %d task %q placed twice", p.App, p.Task.Name)
		}
		byApp[p.App][p.Task.ID] = p
	}
	for ai, g := range graphs {
		if dyn.Cancelled != nil && dyn.Cancelled[ai] {
			continue
		}
		for _, t := range g.Tasks {
			if byApp[ai][t.ID] == nil {
				return fmt.Errorf("trace: app %d task %q not placed", ai, t.Name)
			}
		}
	}

	// 2. Allotment bounds, span sanity, release- and restart-time respect,
	// down-interval avoidance.
	type span struct {
		start, end float64
		label      string
	}
	busy := make(map[string][]span)
	for _, p := range placements {
		if len(p.Procs) == 0 {
			return fmt.Errorf("trace: %s uses no processors", p)
		}
		if p.End < p.Start || p.Start < -tol {
			return fmt.Errorf("trace: %s has invalid span", p)
		}
		if len(p.Procs) > p.Cluster.Procs {
			return fmt.Errorf("trace: %s uses more processors than cluster has", p)
		}
		if hasRestart[p.App] {
			if p.Start < restartAt[p.App]-tol {
				return fmt.Errorf("trace: %s starts before its application's restart at %g",
					p, restartAt[p.App])
			}
		} else if releases != nil && p.Start < releases[p.App]-tol {
			return fmt.Errorf("trace: %s starts before its application's release at %g",
				p, releases[p.App])
		}
		if dyn.DownIntervals != nil && p.Cluster.Index < len(dyn.DownIntervals) {
			for _, iv := range dyn.DownIntervals[p.Cluster.Index] {
				if iv.Overlaps(p.Start, p.End, tol) {
					return fmt.Errorf("trace: %s overlaps down interval [%g, %g) of cluster %s",
						p, iv.From, iv.To, p.Cluster.Name)
				}
			}
		}
		seen := make(map[int]bool, len(p.Procs))
		for _, i := range p.Procs {
			if i < 0 || i >= p.Cluster.Procs {
				return fmt.Errorf("trace: %s uses processor %d outside cluster", p, i)
			}
			if seen[i] {
				return fmt.Errorf("trace: %s lists processor %d twice", p, i)
			}
			seen[i] = true
			key := fmt.Sprintf("%s/%d", p.Cluster.Name, i)
			busy[key] = append(busy[key], span{p.Start, p.End, p.String()})
		}
	}

	// 3a. Per-processor exclusivity.
	for proc, spans := range busy {
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end-tol {
				return fmt.Errorf("trace: processor %s oversubscribed: %s overlaps %s",
					proc, spans[i].label, spans[i-1].label)
			}
		}
	}

	// 3b. Per-cluster capacity at every instant: a sweep line over
	// placement start/end events. Exclusivity over valid processor indices
	// already implies this bound; the explicit sweep keeps the oracle
	// honest should placements ever stop naming concrete processors.
	if err := validateCapacity(pf, placements); err != nil {
		return err
	}

	// 4. Precedence with contention-free redistribution estimates
	// (cancelled applications have no placements to check).
	for ai, g := range graphs {
		if dyn.Cancelled != nil && dyn.Cancelled[ai] {
			continue
		}
		for _, e := range g.Edges {
			from, to := byApp[ai][e.From.ID], byApp[ai][e.To.ID]
			need := from.End + pf.TransferTime(from.Cluster, to.Cluster, e.Bytes)
			if to.Start < need-tol {
				return fmt.Errorf("trace: %q starts at %g before data from %q arrives at %g",
					e.To.Name, to.Start, e.From.Name, need)
			}
		}
	}
	return nil
}

// validateCapacity sweeps each cluster's timeline and checks that the
// number of processors in use never exceeds the cluster's size. Zero-width
// placements release their processors at the instant they claim them, so
// the sweep processes releases before claims at equal times.
func validateCapacity(pf *platform.Platform, placements []*mapping.Placement) error {
	type event struct {
		at    float64
		delta int
	}
	perCluster := make(map[*platform.Cluster][]event)
	for _, p := range placements {
		perCluster[p.Cluster] = append(perCluster[p.Cluster],
			event{p.Start, len(p.Procs)}, event{p.End, -len(p.Procs)})
	}
	for c, evs := range perCluster {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].at != evs[j].at {
				return evs[i].at < evs[j].at
			}
			return evs[i].delta < evs[j].delta
		})
		// Events closer than tol are one instant: apply the whole group
		// before checking, so a task starting exactly (up to float noise)
		// when another ends is not flagged.
		inUse := 0
		for i := 0; i < len(evs); {
			j := i
			for j < len(evs) && evs[j].at <= evs[i].at+tol {
				inUse += evs[j].delta
				j++
			}
			if inUse > c.Procs {
				return fmt.Errorf("trace: cluster %s over capacity at t=%g: %d of %d processors",
					c.Name, evs[i].at, inUse, c.Procs)
			}
			i = j
		}
	}
	return nil
}
