// Package cost implements the task cost models of §2 of the paper:
// computational complexity classes for data-parallel tasks, the Amdahl
// parallel-speedup model, and the data-volume rule for edges.
//
// Concurrency: the package consists of pure functions over immutable
// inputs and is safe for unrestricted concurrent use.
package cost

import (
	"fmt"
	"math"

	"ptgsched/internal/dag"
)

// Dataset size bounds in double-precision elements (§2: processors have at
// most 1 GByte of memory, so d ≤ 121M — a √d×√d matrix of doubles then
// occupies ~0.97 GB — and d ≥ 4M so tasks are worth distributing).
const (
	MinDataElems = 4e6
	MaxDataElems = 121e6
)

// Iteration-coefficient bounds for the a·d and a·d·log d classes (§2: "a is
// picked randomly between 2^6 and 2^9, to capture the fact that some of
// these tasks often perform multiple iterations").
const (
	MinCoeff = 64  // 2^6
	MaxCoeff = 512 // 2^9
)

// AlphaMax bounds the non-parallelizable fraction (§2: α uniform in
// [0, 0.25]).
const AlphaMax = 0.25

// Complexity identifies one of the three computational complexity classes
// of §2.
type Complexity int

const (
	// Linear is a·d operations, e.g. a stencil sweep over a √d×√d domain.
	Linear Complexity = iota
	// NLogN is a·d·log2(d) operations, e.g. sorting d elements.
	NLogN
	// Matrix is d^(3/2) operations, e.g. multiplying two √d×√d matrices.
	Matrix
)

// String implements fmt.Stringer.
func (c Complexity) String() string {
	switch c {
	case Linear:
		return "a·d"
	case NLogN:
		return "a·d·log d"
	case Matrix:
		return "d^3/2"
	default:
		return fmt.Sprintf("Complexity(%d)", int(c))
	}
}

// Flops returns the sequential operation count of a task of the given class
// on d elements with iteration coefficient a (ignored for Matrix).
func Flops(c Complexity, a, d float64) float64 {
	if d <= 0 {
		panic(fmt.Sprintf("cost: non-positive dataset size %g", d))
	}
	switch c {
	case Linear:
		return a * d
	case NLogN:
		return a * d * math.Log2(d)
	case Matrix:
		return d * math.Sqrt(d)
	default:
		panic(fmt.Sprintf("cost: unknown complexity %d", int(c)))
	}
}

// GFlop converts an operation count to GFlop.
func GFlop(flops float64) float64 { return flops / 1e9 }

// EdgeBytes returns the data volume carried by an edge leaving a task that
// operates on d double-precision elements: 8·d bytes (§2).
func EdgeBytes(d float64) float64 { return 8 * d }

// SeqTime returns the sequential execution time in seconds of a task with
// the given work (GFlop) on a processor of the given speed (GFlop/s).
func SeqTime(seqGFlop, speedGFlops float64) float64 {
	if speedGFlops <= 0 {
		panic(fmt.Sprintf("cost: non-positive speed %g", speedGFlops))
	}
	return seqGFlop / speedGFlops
}

// AmdahlTime applies Amdahl's law (§2): a fraction alpha of the sequential
// time is serial, the rest is perfectly parallelizable over p processors.
func AmdahlTime(seqTime, alpha float64, p int) float64 {
	if p < 1 {
		panic(fmt.Sprintf("cost: allocation of %d processors", p))
	}
	if alpha < 0 || alpha > 1 {
		panic(fmt.Sprintf("cost: Amdahl fraction %g outside [0,1]", alpha))
	}
	return seqTime * (alpha + (1-alpha)/float64(p))
}

// TaskTime returns T^k(v, p): the execution time of task v on p processors
// of speed speedGFlops (§2). It combines SeqTime and AmdahlTime.
func TaskTime(v *dag.Task, speedGFlops float64, p int) float64 {
	return AmdahlTime(SeqTime(v.SeqGFlop, speedGFlops), v.Alpha, p)
}

// Speedup returns the Amdahl speedup at p processors for the given serial
// fraction.
func Speedup(alpha float64, p int) float64 {
	return 1 / (alpha + (1-alpha)/float64(p))
}
