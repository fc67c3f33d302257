package cost

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ptgsched/internal/dag"
)

func TestFlopsClasses(t *testing.T) {
	d := 16.0
	if got := Flops(Linear, 3, d); got != 48 {
		t.Errorf("Linear = %g, want 48", got)
	}
	if got := Flops(NLogN, 3, d); got != 3*16*4 {
		t.Errorf("NLogN = %g, want 192", got)
	}
	if got := Flops(Matrix, 0, d); got != 64 {
		t.Errorf("Matrix = %g, want 64", got)
	}
}

func TestFlopsPanicsOnBadInput(t *testing.T) {
	for _, fn := range []func(){
		func() { Flops(Linear, 1, 0) },
		func() { Flops(Complexity(42), 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic on invalid Flops input")
				}
			}()
			fn()
		}()
	}
}

func TestComplexityString(t *testing.T) {
	for c, want := range map[Complexity]string{Linear: "a·d", NLogN: "a·d·log d", Matrix: "d^3/2"} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestEdgeBytes(t *testing.T) {
	if got := EdgeBytes(4e6); got != 32e6 {
		t.Fatalf("EdgeBytes(4M) = %g, want 32e6", got)
	}
}

func TestAmdahlLimits(t *testing.T) {
	seq := 100.0
	if got := AmdahlTime(seq, 0.25, 1); got != seq {
		t.Errorf("p=1 time = %g, want %g", got, seq)
	}
	// With alpha=0, time scales as 1/p.
	if got := AmdahlTime(seq, 0, 4); got != 25 {
		t.Errorf("alpha=0 p=4 time = %g, want 25", got)
	}
	// As p grows, time approaches alpha*seq.
	if got := AmdahlTime(seq, 0.25, 1_000_000); math.Abs(got-25) > 0.01 {
		t.Errorf("asymptotic time = %g, want ~25", got)
	}
}

func TestTaskTimeMatchesPaperFormula(t *testing.T) {
	g := dag.New("g")
	v := g.AddTask("v", 1e6, 10, 0.2) // 10 GFlop, alpha 0.2
	speed := 2.0                      // GFlop/s
	// seq = 5 s; T(4) = 5*(0.2 + 0.8/4) = 2.
	if got := TaskTime(v, speed, 4); math.Abs(got-2) > 1e-12 {
		t.Fatalf("TaskTime = %g, want 2", got)
	}
}

// area is the processing-power area SCRAP's global constraint sums (§4):
// execution time multiplied by the consumed power p·speed, as alloc.Compute
// spells it inline.
func area(v *dag.Task, speedGFlops float64, p int) float64 {
	return TaskTime(v, speedGFlops, p) * float64(p) * speedGFlops
}

func TestAreaGrowsWithProcs(t *testing.T) {
	g := dag.New("g")
	v := g.AddTask("v", 1e6, 10, 0.2)
	// With alpha > 0, parallel efficiency drops, so area strictly grows.
	prev := area(v, 3, 1)
	for p := 2; p <= 16; p++ {
		a := area(v, 3, p)
		if a <= prev {
			t.Fatalf("area not increasing at p=%d: %g <= %g", p, a, prev)
		}
		prev = a
	}
}

func TestAreaConstantWhenPerfectlyParallel(t *testing.T) {
	g := dag.New("g")
	v := g.AddTask("v", 1e6, 10, 0)
	a1 := area(v, 3, 1)
	a8 := area(v, 3, 8)
	if math.Abs(a1-a8) > 1e-9 {
		t.Fatalf("area changed for alpha=0: %g vs %g", a1, a8)
	}
}

func TestMarginalGainPositiveAndDiminishing(t *testing.T) {
	g := dag.New("g")
	v := g.AddTask("v", 1e6, 100, 0.1)
	prev := MarginalGain(v, 1, 1)
	for p := 2; p < 32; p++ {
		gain := MarginalGain(v, 1, p)
		if gain <= 0 {
			t.Fatalf("gain at p=%d is %g, want > 0", p, gain)
		}
		if gain >= prev {
			t.Fatalf("gain not diminishing at p=%d: %g >= %g", p, gain, prev)
		}
		prev = gain
	}
}

func TestSpeedupBounds(t *testing.T) {
	if s := Speedup(0, 8); s != 8 {
		t.Errorf("perfect speedup = %g, want 8", s)
	}
	if s := Speedup(0.25, 1_000_000); s > 4 {
		t.Errorf("speedup exceeded Amdahl bound 1/alpha: %g", s)
	}
}

// Property: execution time is non-increasing in p and never below the
// serial floor alpha*seq.
func TestAmdahlMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		seq := 1 + r.Float64()*1000
		alpha := r.Float64() * AlphaMax
		prev := math.Inf(1)
		for p := 1; p <= 128; p *= 2 {
			tt := AmdahlTime(seq, alpha, p)
			if tt > prev || tt < alpha*seq-1e-9 {
				return false
			}
			prev = tt
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: flop counts are monotone in d for every class.
func TestFlopsMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d1 := MinDataElems + r.Float64()*(MaxDataElems-MinDataElems)
		d2 := d1 * (1 + r.Float64())
		a := float64(MinCoeff + r.Intn(MaxCoeff-MinCoeff+1))
		for _, c := range []Complexity{Linear, NLogN, Matrix} {
			if Flops(c, a, d2) < Flops(c, a, d1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
