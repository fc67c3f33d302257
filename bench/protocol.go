package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"
)

// runner is one named workload. The shared protocol drives it: set-up
// (inputs from the seed, directories, servers, the oracle) and one
// untimed warm-up pass, then fixed-size passes alternating between 1 and
// W workers or clients, then teardown on every exit path.
type runner interface {
	setup() error
	pass(workers int) (outcome, error)
	teardown()
	// traceSlice re-runs ops of the workload stage by stage under tr,
	// for at least minOps ops and until budget is spent or the pass's
	// ops are exhausted, checking each against the untraced result.
	traceSlice(tr *tracer, budget time.Duration) (slice, error)
}

// outcome is what one pass reports besides its duration.
type outcome struct {
	ops    int    // operations attempted
	failed int    // failed, refused or incorrect operations
	bytes  int64  // bytes of output produced (wire or disk)
	digest string // order-insensitive digest of the pass's result set
	// extra carries the workload's own per-pass numbers (request and
	// query latencies, reopen time, queue wait); they become †-marked
	// per-layer metrics.
	extra map[string]float64
	// latencies are the pass's per-op client latencies in ms, where ops
	// have one; they are pooled over passes for the 99th percentile.
	latencies []float64
}

// sample is one measured pass.
type sample struct {
	workers int
	outcome
	wall    time.Duration
	cpu     time.Duration
	cpuOK   bool
	mallocs uint64
	calib   float64 // mean of the calibrations before and after, ms
}

// normSeconds is the pass's duration in reference-host seconds: measured
// × calibRefMS ÷ the calibration around the pass.
func (s sample) normSeconds() float64 { return s.wall.Seconds() * calibRefMS / s.calib }

var errDigest = errors.New("result digest differs between passes")

// measureOnce times one pass between two calibrations.
func measureOnce(w runner, workers int) (sample, error) {
	var ms runtime.MemStats
	before := calibrate()
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	cpu0, cpuOK := cpuTime()
	start := time.Now()
	out, err := w.pass(workers)
	wall := time.Since(start)
	cpu1, _ := cpuTime()
	runtime.ReadMemStats(&ms)
	after := calibrate()
	if err != nil {
		return sample{}, err
	}
	return sample{
		workers: workers, outcome: out, wall: wall,
		cpu: cpu1 - cpu0, cpuOK: cpuOK, mallocs: ms.Mallocs - mallocs,
		calib: (before + after) / 2,
	}, nil
}

// measure alternates passes at 1 and at W workers until seconds have
// passed (never fewer than minPairs pairs). With W == 1 the two sides
// would be the same experiment, so only the 1-worker side runs. Every
// pass must produce the same result digest.
func measure(w runner, width int, seconds float64, minPairs int) ([]sample, error) {
	sides := []int{1, width}
	if width == 1 {
		sides = sides[:1]
	}
	var samples []sample
	var pairTime time.Duration
	start := time.Now()
	for pair := 0; ; pair++ {
		if pair >= minPairs && time.Since(start)+pairTime > time.Duration(seconds*float64(time.Second)) {
			break
		}
		pairStart := time.Now()
		for _, workers := range sides {
			s, err := measureOnce(w, workers)
			if err != nil {
				return samples, fmt.Errorf("pass %d at %d workers: %w", pair, workers, err)
			}
			if len(samples) > 0 && s.digest != samples[0].digest {
				return samples, fmt.Errorf("pass %d at %d workers: %w: %s, first pass %s",
					pair, workers, errDigest, s.digest, samples[0].digest)
			}
			samples = append(samples, s)
		}
		pairTime = time.Since(pairStart)
	}
	return samples, nil
}

// setupRuns is how many times a run sets the workload up; setup_s is the
// median, so one cold page cache or one slow fsync does not decide it.
const setupRuns = 3

// setUp sets the workload up setupRuns times, warm-up pass included,
// tearing down all but the last, and returns the durations in seconds.
func setUp(mk func() runner, width int) (runner, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		w := mk()
		err := w.setup()
		if err == nil {
			_, err = w.pass(width)
		}
		if err != nil {
			w.teardown()
			return nil, times, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == setupRuns-1 {
			return w, times, nil
		}
		w.teardown()
	}
}
