// Dynamic scenarios: the event-timeline machinery that lets the online
// scheduler run under cluster failures, recoveries, speed changes, and
// application cancellation/resubmission (events.Timeline), and the
// rescheduling policies that decide how much of an application's work an
// invalidating event throws away.
//
// Semantics, in timeline order at each instant (completions first, then
// recoveries, speed changes, failures, cancels, resubmissions, arrivals):
//
//   - ClusterDown kills every running and committed placement on the
//     cluster; the killed task IDs are handed per application to the
//     rescheduling policy, which returns the full set of tasks to
//     invalidate. When that set discards completed work, the application
//     restarts from scratch and a Restart record is emitted for the
//     oracle. A β rebalance follows.
//   - ClusterUp returns the cluster to service and rebalances; tasks left
//     ready because no cluster was available are committed at this
//     instant.
//   - SpeedChange sets the cluster's effective speed to factor × its
//     configured speed. Placements already committed keep their end times
//     (the cost of migrating or re-estimating in-flight work is the
//     rescheduling policies' territory, not the platform model's); the
//     new speed governs every subsequent commitment and translation.
//   - Cancel withdraws an application: in-flight placements are killed,
//     completed placements are dropped from the result, and the
//     application stops counting toward β. Cancelling a completed
//     application is a no-op; cancelling one that has not arrived yet
//     suppresses its arrival.
//   - Resubmit re-enters a cancelled application from scratch at the
//     event instant (its new submission time), with a Restart record.
//
// Platform events never remove a cluster from the platform value itself —
// the scheduler tracks effective speed and up/down state beside it — so
// placements always reference the original *platform.Cluster values and
// every static invariant of the trace oracle keeps holding.
package online

import (
	"fmt"
	"math"

	"ptgsched/internal/dag"
	"ptgsched/internal/events"
	"ptgsched/internal/platform"
)

// ReschedulePolicy decides which tasks of an application are invalidated
// when an event kills some of its in-flight placements. Implementations
// must be stateless and deterministic.
type ReschedulePolicy interface {
	// Name is the policy's registry key.
	Name() string
	// Invalidate returns the IDs of the tasks to reset, given the killed
	// in-flight task IDs and the per-task completion mask. The result must
	// be a superset of killed (the engine enforces the union).
	Invalidate(g *dag.Graph, killed []int, done []bool) []int
}

// restartPolicy is the resubmit-from-scratch baseline: any kill discards
// the whole application, completed work included.
type restartPolicy struct{}

func (restartPolicy) Name() string { return "restart" }

func (restartPolicy) Invalidate(g *dag.Graph, killed []int, done []bool) []int {
	ids := make([]int, len(g.Tasks))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// checkpointPolicy is the checkpoint-aware remap: completed tasks'
// outputs are durable, so only the killed tasks themselves rerun; their
// successors' precedence constraints are served from the checkpointed
// predecessors.
type checkpointPolicy struct{}

func (checkpointPolicy) Name() string { return "checkpoint" }

func (checkpointPolicy) Invalidate(g *dag.Graph, killed []int, done []bool) []int {
	return append([]int(nil), killed...)
}

// RestartPolicy returns the resubmit-from-scratch baseline policy, the
// default when a timeline is given without an explicit policy.
func RestartPolicy() ReschedulePolicy { return restartPolicy{} }

// CheckpointPolicy returns the checkpoint-aware remap policy.
func CheckpointPolicy() ReschedulePolicy { return checkpointPolicy{} }

// PolicyNames lists the registered rescheduling policies in registry
// order.
func PolicyNames() []string { return []string{"restart", "checkpoint"} }

// PolicyByName resolves a rescheduling policy by its registry key.
func PolicyByName(name string) (ReschedulePolicy, error) {
	switch name {
	case "restart":
		return restartPolicy{}, nil
	case "checkpoint":
		return checkpointPolicy{}, nil
	default:
		return nil, fmt.Errorf("online: unknown rescheduling policy %q (have %v)", name, PolicyNames())
	}
}

// pushTimeline enqueues the timeline's events. Entries referencing
// clusters or applications the run does not have are a caller bug:
// events.Spec.Generate already drops them per point.
func (s *scheduler) pushTimeline(tl events.Timeline) {
	for _, e := range tl {
		if e.At < 0 {
			panic(fmt.Sprintf("online: negative event time %g", e.At))
		}
		switch e.Kind {
		case events.ClusterDown, events.ClusterUp, events.SpeedChange:
			if e.Cluster < 0 || e.Cluster >= len(s.pf.Clusters) {
				panic(fmt.Sprintf("online: event cluster %d outside platform of %d clusters", e.Cluster, len(s.pf.Clusters)))
			}
			if e.Kind == events.SpeedChange && e.Factor <= 0 {
				panic(fmt.Sprintf("online: speed change factor %g", e.Factor))
			}
		case events.Cancel, events.Resubmit:
			if e.App < 0 || e.App >= len(s.arrivals) {
				panic(fmt.Sprintf("online: event application %d outside arrival set of %d", e.App, len(s.arrivals)))
			}
		default:
			panic(fmt.Sprintf("online: unknown event kind %v", e.Kind))
		}
		s.events.Push(event{at: e.At, kind: e.Kind, cluster: e.Cluster, factor: e.Factor, app: e.App})
	}
}

// refreshRef recomputes the effective reference cluster over the alive
// clusters at their effective speeds. Only called after a platform event,
// so the static path's reference stays the platform's own, bit for bit.
// With every cluster down the previous reference is kept: nothing can be
// committed anyway, and allocation needs a non-degenerate reference.
func (s *scheduler) refreshRef() {
	procs := 0
	power := 0.0
	for k, c := range s.pf.Clusters {
		if s.downC[k] {
			continue
		}
		procs += c.Procs
		power += float64(float64(c.Procs) * s.speed[k])
	}
	if procs == 0 {
		return
	}
	s.ref = platform.Reference{Procs: procs, Speed: power / float64(procs)}
}

func (s *scheduler) onClusterDown(k int) {
	if s.downC[k] {
		return
	}
	s.downC[k] = true
	s.refreshRef()

	// Kill every in-flight placement on the failed cluster, application by
	// application: the policy sees one application's killed tasks and
	// completion mask, in scratch buffers the next application overwrites.
	for app, tasks := range s.tasks {
		killed := s.sc.killed[:0]
		done := resized(s.sc.done, len(tasks))
		for id, ot := range tasks {
			if (ot.state == taskRunning || ot.state == taskCommitted) && ot.placement.Cluster.Index == k {
				killed = append(killed, id)
			}
			done[id] = ot.state == taskDone
		}
		s.sc.killed, s.sc.done = killed, done
		if len(killed) == 0 {
			continue
		}
		ids := s.policy.Invalidate(s.arrivals[app].Graph, killed, done)
		s.invalidate(app, s.union(ids, killed, len(tasks)))
		s.result.Reschedules++
	}
	s.rebalance()
}

func (s *scheduler) onClusterUp(k int) {
	if !s.downC[k] {
		return
	}
	s.downC[k] = false
	s.refreshRef()
	s.rebalance()
}

func (s *scheduler) onSpeedChange(k int, factor float64) {
	// Factors apply to the configured speed, not the current one, so
	// repeated events are idempotent and order-free within an instant.
	s.speed[k] = s.pf.Clusters[k].Speed * factor
	s.refreshRef()
	s.rebalance()
}

func (s *scheduler) onCancel(app int) {
	if s.cancelled[app] {
		return
	}
	if s.arrived[app] && s.done[app] == len(s.tasks[app]) {
		return // already complete: nothing to withdraw
	}
	s.cancelled[app] = true
	s.result.Cancelled[app] = true
	for _, ot := range s.tasks[app] {
		ot.placement = nil // stales any pending completion event
		ot.state = taskPending
		ot.remainingPreds = len(ot.task.In())
	}
	if s.done[app] > 0 {
		s.dropDiscarded()
	}
	s.done[app] = 0
	s.result.Apps[app].StartedAt = s.result.Apps[app].SubmittedAt
	// CompletedAt records when the application left the system; a
	// cancellation ahead of the arrival charges no residence time.
	s.result.Apps[app].CompletedAt = math.Max(s.now, s.result.Apps[app].SubmittedAt)
	if s.arrived[app] {
		s.rebalance()
	}
}

func (s *scheduler) onResubmit(app int) {
	if !s.cancelled[app] {
		return
	}
	s.cancelled[app] = false
	s.result.Cancelled[app] = false
	s.arrived[app] = true
	s.result.Apps[app] = AppResult{SubmittedAt: s.now, StartedAt: math.Inf(1)}
	for _, ot := range s.tasks[app] {
		ot.placement = nil
		ot.state = taskPending
		ot.remainingPreds = len(ot.task.In())
		if ot.remainingPreds == 0 {
			ot.state = taskReady
		}
	}
	s.done[app] = 0
	s.result.Restarts = append(s.result.Restarts, events.Restart{App: app, At: s.now})
	s.rebalance()
}

// invalidate resets the given tasks of app (in-flight ones lose their
// placements, completed ones their results), recomputes readiness, and —
// when completed work was discarded — records the from-scratch restart.
func (s *scheduler) invalidate(app int, ids []int) {
	tasks := s.tasks[app]
	discardedDone := false
	for _, id := range ids {
		ot := tasks[id]
		if ot.state == taskDone {
			s.done[app]--
			discardedDone = true
		}
		ot.placement = nil
		ot.state = taskPending
	}
	if discardedDone {
		s.dropDiscarded()
	}
	// Recompute readiness of every non-done task against the surviving
	// completion set.
	for _, ot := range tasks {
		if ot.state == taskDone || ot.state == taskRunning || ot.state == taskCommitted {
			continue
		}
		n := 0
		for _, e := range ot.task.In() {
			if tasks[e.From.ID].state != taskDone {
				n++
			}
		}
		ot.remainingPreds = n
		if n == 0 {
			ot.state = taskReady
		} else {
			ot.state = taskPending
		}
	}
	if discardedDone {
		s.result.Restarts = append(s.result.Restarts, events.Restart{App: app, At: s.now})
	}
	if s.done[app] == 0 {
		s.result.Apps[app].StartedAt = math.Inf(1)
	}
}

// dropDiscarded removes from the result, in one pass that keeps the
// completion order of the rest, every placement its task no longer holds: a
// surviving placement is the current placement of a finished task, and a
// discarded task's placement has just been cleared.
func (s *scheduler) dropDiscarded() {
	ps := s.result.Placements
	kept := ps[:0]
	for _, p := range ps {
		if s.tasks[p.App][p.Task.ID].placement == p {
			kept = append(kept, p)
		}
	}
	clear(ps[len(kept):])
	s.result.Placements = kept
}

// union merges two sets of IDs below n into a sorted, duplicate-free slice,
// in a scratch buffer the next call overwrites.
func (s *scheduler) union(a, b []int, n int) []int {
	member := resized(s.sc.member, n)
	clear(member)
	for _, id := range a {
		member[id] = true
	}
	for _, id := range b {
		member[id] = true
	}
	out := s.sc.invalid[:0]
	for id, in := range member {
		if in {
			out = append(out, id)
		}
	}
	s.sc.member, s.sc.invalid = member, out
	return out
}
