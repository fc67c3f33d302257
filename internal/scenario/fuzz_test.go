package scenario

// FuzzScheduleInvariants is the property-based schedule-invariant suite:
// arbitrary fuzzer-chosen scenario points (platform, family, batch size,
// seed, arrival process, dynamic event timeline) are driven through every
// registered strategy, and every resulting schedule — offline, online,
// and dynamic under both rescheduling policies — must pass the full trace
// oracle: placement uniqueness, allotment bounds, per-processor
// exclusivity, per-cluster capacity, precedence with redistribution
// delays, release-time respect (online), and the dynamic invariants (no
// placement overlapping a down interval, restarts respected, cancelled
// applications leaving nothing behind). The checked-in corpus under
// testdata/fuzz covers every platform topology, family, arrival process
// and event-timeline shape; `go test` replays it on every run, `go test
// -fuzz` explores beyond it.

import (
	"math"
	"math/rand"
	"testing"

	"ptgsched/internal/core"
	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/events"
	"ptgsched/internal/online"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
	"ptgsched/internal/trace"
	"ptgsched/internal/workload"
)

// fuzzPlatform maps a selector onto the four Grid'5000 presets plus a
// deliberately skewed heterogeneous platform (tiny fast cluster next to a
// large slow one, per-cluster switches).
func fuzzPlatform(sel uint8) *platform.Platform {
	switch sel % 5 {
	case 0:
		return platform.Lille()
	case 1:
		return platform.Nancy()
	case 2:
		return platform.Rennes()
	case 3:
		return platform.Sophia()
	default:
		return platform.New("skewed", false,
			platform.ClusterSpec{Name: "hare", Procs: 4, Speed: 12.0},
			platform.ClusterSpec{Name: "herd", Procs: 96, Speed: 1.5},
		)
	}
}

// fuzzTimeline derives a dynamic event timeline from two fuzzer bytes:
// the shape selector picks one of the covered timeline corners (none,
// permanent mid-run failure, fail-then-recover, speed change, cancel,
// cancel-and-resubmit) and evAt places it in time. Every shape keeps the
// run finishable: permanent failures never take the last alive cluster
// (all fuzz platforms have at least two).
func fuzzTimeline(evSel uint8, evAt float64, pf *platform.Platform, nApps int) events.Timeline {
	if math.IsNaN(evAt) || math.IsInf(evAt, 0) || evAt < 0 || evAt > 1e6 {
		evAt = 5
	}
	last := len(pf.Clusters) - 1
	var tl events.Timeline
	switch evSel % 6 {
	case 0:
		return nil
	case 1: // permanent mid-run failure of the last cluster
		tl = events.Timeline{{At: evAt, Kind: events.ClusterDown, Cluster: last}}
	case 2: // fail then recover
		tl = events.Timeline{
			{At: evAt, Kind: events.ClusterDown, Cluster: 0},
			{At: evAt + 1 + evAt/2, Kind: events.ClusterUp, Cluster: 0},
		}
	case 3: // speed change mid-run (slow down, then speed past original)
		tl = events.Timeline{
			{At: evAt, Kind: events.SpeedChange, Cluster: 0, Factor: 0.5},
			{At: 2*evAt + 1, Kind: events.SpeedChange, Cluster: 0, Factor: 2},
		}
	case 4: // cancel, never resubmitted
		tl = events.Timeline{{At: evAt, Kind: events.Cancel, App: 0}}
	default: // cancel and resubmit
		tl = events.Timeline{
			{At: evAt, Kind: events.Cancel, App: nApps - 1},
			{At: evAt + 1 + evAt/4, Kind: events.Resubmit, App: nApps - 1},
		}
	}
	tl.Sort()
	return tl
}

func FuzzScheduleInvariants(f *testing.F) {
	// One seed input per platform topology × family × arrival process
	// corner, mirrored by the checked-in corpus; the last two values
	// select the dynamic event timeline.
	f.Add(int64(1), uint8(0), uint8(0), uint8(2), uint8(0), 0.25, uint8(0), 0.0)
	f.Add(int64(42), uint8(2), uint8(1), uint8(4), uint8(1), 0.25, uint8(0), 0.0)
	f.Add(int64(7), uint8(4), uint8(2), uint8(3), uint8(2), 2.0, uint8(0), 0.0)
	f.Add(int64(-3), uint8(1), uint8(0), uint8(1), uint8(1), 0.05, uint8(0), 0.0)
	f.Add(int64(1e12), uint8(3), uint8(1), uint8(5), uint8(0), 0.5, uint8(0), 0.0)
	// Dynamic corners: mid-run failure, fail-then-recover, speed change
	// during a placement, cancel-and-resubmit.
	f.Add(int64(11), uint8(0), uint8(0), uint8(3), uint8(0), 0.25, uint8(1), 4.0)
	f.Add(int64(13), uint8(4), uint8(1), uint8(4), uint8(1), 0.5, uint8(2), 2.0)
	f.Add(int64(17), uint8(2), uint8(2), uint8(2), uint8(2), 1.0, uint8(3), 1.0)
	f.Add(int64(19), uint8(1), uint8(0), uint8(4), uint8(1), 0.25, uint8(5), 3.0)

	f.Fuzz(func(t *testing.T, seed int64, pfSel, famSel, nSel, procSel uint8, rate float64, evSel uint8, evAt float64) {
		pf := fuzzPlatform(pfSel)
		fam := daggen.Family(int(famSel) % 3)
		n := 1 + int(nSel)%5
		if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0.01 || rate > 100 {
			rate = 0.25
		}
		process := workload.Process(int(procSel) % 3)

		// Offline: one concurrently-submitted batch per strategy.
		r := rand.New(rand.NewSource(seed))
		graphs := make([]*dag.Graph, n)
		for i := range graphs {
			graphs[i] = daggen.Generate(fam, r)
		}
		sched := core.New(pf)
		for _, name := range strategy.Names() {
			strat, err := strategy.ByName(name, -1, fam)
			if err != nil {
				t.Fatalf("registry broke: %v", err)
			}
			res := sched.Schedule(graphs, strat)
			if err := trace.Validate(res.Schedule); err != nil {
				t.Fatalf("offline %s on %s (fam=%s n=%d seed=%d): %v",
					name, pf.Name, fam, n, seed, err)
			}
		}

		// Online: the same scenario as a dynamic-arrival workload; every
		// placement must also respect its application's release time.
		r = rand.New(rand.NewSource(seed))
		arrivals := workload.Generate(workload.Spec{
			Family: fam, Count: n, Process: process, Rate: rate,
		}, r)
		onGraphs := make([]*dag.Graph, len(arrivals))
		releases := make([]float64, len(arrivals))
		for i, a := range arrivals {
			onGraphs[i] = a.Graph
			releases[i] = a.At
		}
		for _, name := range strategy.Names() {
			strat, err := strategy.ByName(name, -1, fam)
			if err != nil {
				t.Fatalf("registry broke: %v", err)
			}
			res := online.Schedule(pf, arrivals, online.Options{Strategy: strat})
			if err := trace.ValidateDynamic(pf, onGraphs, res.Placements, trace.Dynamic{Releases: releases}); err != nil {
				t.Fatalf("online %s on %s (fam=%s n=%d proc=%s rate=%g seed=%d): %v",
					name, pf.Name, fam, n, process, rate, seed, err)
			}
		}

		// Dynamic: the same workload under a fuzzer-chosen event timeline,
		// every strategy × both rescheduling policies, against the extended
		// oracle. The down intervals are derived from the timeline itself,
		// independently of the engine's bookkeeping.
		tl := fuzzTimeline(evSel, evAt, pf, len(arrivals))
		if len(tl) == 0 {
			return
		}
		downs := tl.DownIntervals(len(pf.Clusters))
		hasCancel := false
		for _, ev := range tl {
			if ev.Kind == events.Cancel {
				hasCancel = true
			}
		}
		policies := []online.ReschedulePolicy{online.RestartPolicy(), online.CheckpointPolicy()}
		for _, name := range strategy.Names() {
			strat, err := strategy.ByName(name, -1, fam)
			if err != nil {
				t.Fatalf("registry broke: %v", err)
			}
			for _, policy := range policies {
				res := online.Schedule(pf, arrivals, online.Options{
					Strategy: strat, Timeline: tl, Policy: policy,
				})
				err := trace.ValidateDynamic(pf, onGraphs, res.Placements, trace.Dynamic{
					DownIntervals: downs,
					Releases:      releases,
					Cancelled:     res.Cancelled,
					Restarts:      res.Restarts,
				})
				if err != nil {
					t.Fatalf("dynamic %s/%s on %s (fam=%s n=%d ev=%d at=%g seed=%d): %v",
						name, policy.Name(), pf.Name, fam, n, evSel%6, evAt, seed, err)
				}
				for i, c := range res.Cancelled {
					if c && !hasCancel {
						t.Fatalf("dynamic %s/%s: app %d cancelled by a timeline with no cancel events",
							name, policy.Name(), i)
					}
				}
			}
		}
	})
}
