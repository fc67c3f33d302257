// Package mapping implements the second step of the paper's two-step
// scheduling: placing the allocated tasks of one or several PTGs onto the
// concrete clusters of a multi-cluster platform (§5).
//
// The paper's mapping procedure orders only the *ready* tasks (all
// predecessors finished) by decreasing bottom level, selects for the head
// task the cluster and processor set with the earliest finish time, and
// applies *allocation packing*: when a task would be delayed waiting for
// processors, its allocation is shrunk iff it then starts earlier and
// finishes no later. A global-ordering variant (the classical approach the
// paper argues against, Fig. 1) is provided for comparison.
//
// Concurrency: Map keeps the whole mapper state in a Scratch of its own —
// a worker that maps batch after batch keeps one and calls its Map — and
// only reads the platform, so independent Map calls (and calls on distinct
// scratches) run concurrently; the input allocations' graphs carry cached
// analyses, so two concurrent calls must not share graphs. A returned
// Schedule is mutable (Add) and must be confined or frozen before sharing.
package mapping

import (
	"fmt"

	"ptgsched/internal/alloc"
	"ptgsched/internal/dag"
	"ptgsched/internal/platform"
)

// Placement records where and when one task executes.
type Placement struct {
	App int // index of the application in the schedule
	// Index is the placement's position in Schedule.Placements, set when
	// the placement is recorded (by the mapper or by Add). The simulated
	// executor uses it to index its per-placement state without a map.
	Index   int
	Task    *dag.Task
	Cluster *platform.Cluster
	// Procs are the indices (within the cluster) of the processors used.
	Procs []int
	// Start and End are the mapper's estimated times in seconds. The
	// simexec package replays the schedule under network contention and
	// produces actual times.
	Start, End float64
}

// Duration returns the estimated execution time of the placement.
func (p *Placement) Duration() float64 { return p.End - p.Start }

// String implements fmt.Stringer.
func (p *Placement) String() string {
	return fmt.Sprintf("app%d/%s on %s×%d [%.2f, %.2f]",
		p.App, p.Task.Name, p.Cluster.Name, len(p.Procs), p.Start, p.End)
}

// Schedule is the result of mapping a set of allocated PTGs.
type Schedule struct {
	Platform *platform.Platform
	Apps     []*alloc.Allocation
	// Placements lists one placement per task, in mapping order.
	Placements []*Placement

	byTask map[*dag.Task]*Placement
}

// NewSchedule returns an empty schedule over the given platform and
// applications, for schedulers (e.g. the baseline package) that build
// placements themselves.
func NewSchedule(pf *platform.Platform, apps []*alloc.Allocation) *Schedule {
	return &Schedule{Platform: pf, Apps: apps, byTask: make(map[*dag.Task]*Placement)}
}

// Add records a placement built by an external scheduler. It panics if the
// task is already placed.
func (s *Schedule) Add(p *Placement) {
	if s.byTask[p.Task] != nil {
		panic(fmt.Sprintf("mapping: task %q placed twice", p.Task.Name))
	}
	p.Index = len(s.Placements)
	s.Placements = append(s.Placements, p)
	s.byTask[p.Task] = p
}

// PlacementOf returns the placement of t, or nil if t is not scheduled.
func (s *Schedule) PlacementOf(t *dag.Task) *Placement { return s.byTask[t] }

// Makespan returns the estimated completion time of application app: the
// latest end time over its tasks (its entry starts at 0 by the concurrent
// submission model of the paper).
func (s *Schedule) Makespan(app int) float64 {
	end := 0.0
	for _, t := range s.Apps[app].Graph.Tasks {
		if p := s.byTask[t]; p != nil && p.End > end {
			end = p.End
		}
	}
	return end
}

// GlobalMakespan returns the completion time of the whole schedule.
func (s *Schedule) GlobalMakespan() float64 {
	end := 0.0
	for _, p := range s.Placements {
		if p.End > end {
			end = p.End
		}
	}
	return end
}

// Ordering selects how tasks are prioritized during mapping.
type Ordering int

const (
	// ReadyTasks is the paper's procedure (§5): only tasks whose
	// predecessors have all finished are ordered, by decreasing bottom
	// level.
	ReadyTasks Ordering = iota
	// Global is the classical aggregated ordering: all tasks of all PTGs
	// sorted by decreasing bottom level once, mapped in that order. Small
	// PTGs get postponed behind large ones (Fig. 1).
	Global
)

// String implements fmt.Stringer.
func (o Ordering) String() string {
	switch o {
	case ReadyTasks:
		return "ready-tasks"
	case Global:
		return "global"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// Options tune the mapper. The zero value is the paper's configuration.
type Options struct {
	Ordering Ordering
	// NoPacking disables the allocation packing mechanism (for ablation).
	NoPacking bool
}
