// Package metrics implements the paper's two evaluation metrics (§7):
// unfairness, built on per-application slowdowns (Eq. 3–5), and the average
// relative makespan protocol, plus small summary-statistics helpers used by
// the experiment harness.
//
// Concurrency: pure functions over slices the caller owns; safe for
// unrestricted concurrent use.
package metrics

import (
	"fmt"
	"math"
)

// Slowdown returns the slowdown of an application (Eq. 3): the ratio
// between the makespan achieved with the resources on its own (own) and the
// makespan achieved in presence of concurrency (multi). Values are ≤ 1 when
// sharing delays the application; 1 means no perturbation at all.
func Slowdown(own, multi float64) float64 {
	if own < 0 || multi <= 0 {
		panic(fmt.Sprintf("metrics: invalid makespans own=%g multi=%g", own, multi))
	}
	return own / multi
}

// AvgSlowdown returns the mean slowdown over a set of applications (Eq. 4).
func AvgSlowdown(slowdowns []float64) float64 {
	if len(slowdowns) == 0 {
		panic("metrics: no slowdowns")
	}
	return Mean(slowdowns)
}

// Unfairness returns the unfairness of a schedule (Eq. 5): the sum of the
// absolute deviations of each application's slowdown from the average
// slowdown. Zero means perfectly fair (all applications perturbed alike);
// values grow both with dissimilarity and with the number of applications.
func Unfairness(slowdowns []float64) float64 {
	avg := AvgSlowdown(slowdowns)
	u := 0.0
	for _, s := range slowdowns {
		u += math.Abs(s - avg)
	}
	return u
}

// RelativeMakespans divides each strategy's makespan by the best (smallest)
// makespan of the experiment, implementing the paper's average relative
// makespan protocol: "the makespan achieved by each strategy ... is divided
// by the best makespan achieved for this experiment". The best strategy
// scores exactly 1.
func RelativeMakespans(makespans []float64) []float64 {
	if len(makespans) == 0 {
		return nil
	}
	best := math.Inf(1)
	for _, m := range makespans {
		if m <= 0 {
			panic(fmt.Sprintf("metrics: non-positive makespan %g", m))
		}
		if m < best {
			best = m
		}
	}
	rel := make([]float64, len(makespans))
	for i, m := range makespans {
		rel[i] = m / best
	}
	return rel
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("metrics: mean of empty slice")
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (zero for fewer than
// two samples).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	v := 0.0
	for _, x := range xs {
		v += float64((x - m) * (x - m))
	}
	return math.Sqrt(v / float64(len(xs)-1))
}
