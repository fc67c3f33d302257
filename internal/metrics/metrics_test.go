package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSlowdownRatio(t *testing.T) {
	if s := Slowdown(10, 50); s != 0.2 {
		t.Fatalf("Slowdown = %g, want 0.2", s)
	}
	if s := Slowdown(10, 10); s != 1 {
		t.Fatalf("undelayed slowdown = %g, want 1", s)
	}
}

func TestSlowdownPanicsOnInvalid(t *testing.T) {
	for _, c := range [][2]float64{{-1, 1}, {1, 0}, {1, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slowdown(%g,%g) did not panic", c[0], c[1])
				}
			}()
			Slowdown(c[0], c[1])
		}()
	}
}

func TestUnfairnessPaperExample(t *testing.T) {
	// §7's worked example: 8 undelayed PTGs (slowdown 1) and 2 delayed 5×
	// (slowdown 0.2): average slowdown 0.84, unfairness 2.56.
	sl := make([]float64, 10)
	for i := 0; i < 8; i++ {
		sl[i] = 1
	}
	sl[8], sl[9] = 0.2, 0.2
	if avg := AvgSlowdown(sl); math.Abs(avg-0.84) > 1e-12 {
		t.Fatalf("avg slowdown = %g, want 0.84", avg)
	}
	if u := Unfairness(sl); math.Abs(u-2.56) > 1e-12 {
		t.Fatalf("unfairness = %g, want 2.56", u)
	}
}

func TestUnfairnessZeroWhenUniform(t *testing.T) {
	if u := Unfairness([]float64{0.5, 0.5, 0.5}); u != 0 {
		t.Fatalf("uniform unfairness = %g, want 0", u)
	}
}

func TestRelativeMakespansBestIsOne(t *testing.T) {
	rel := RelativeMakespans([]float64{200, 100, 150})
	want := []float64{2, 1, 1.5}
	for i := range want {
		if math.Abs(rel[i]-want[i]) > 1e-12 {
			t.Fatalf("rel[%d] = %g, want %g", i, rel[i], want[i])
		}
	}
}

func TestRelativeMakespansEmpty(t *testing.T) {
	if rel := RelativeMakespans(nil); rel != nil {
		t.Fatal("empty input should yield nil")
	}
}

func TestSummaryStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if m := Mean(xs); m != 2.5 {
		t.Errorf("Mean = %g", m)
	}
	if sd := StdDev(xs); math.Abs(sd-math.Sqrt(5.0/3)) > 1e-12 {
		t.Errorf("StdDev = %g", sd)
	}
	if sd := StdDev([]float64{5}); sd != 0 {
		t.Errorf("single-sample StdDev = %g, want 0", sd)
	}
}

// Property: unfairness is non-negative, zero iff all slowdowns equal, and
// invariant under permutation.
func TestUnfairnessProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		count := int(n%10) + 2
		sl := make([]float64, count)
		for i := range sl {
			sl[i] = 0.05 + r.Float64()
		}
		u := Unfairness(sl)
		if u < 0 {
			return false
		}
		// Permutation invariance.
		perm := make([]float64, count)
		for i, j := range r.Perm(count) {
			perm[i] = sl[j]
		}
		if math.Abs(Unfairness(perm)-u) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: relative makespans are ≥ 1 with at least one exactly 1.
func TestRelativeMakespanProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		count := int(n%8) + 1
		ms := make([]float64, count)
		for i := range ms {
			ms[i] = 1 + r.Float64()*1000
		}
		rel := RelativeMakespans(ms)
		ones := 0
		for _, v := range rel {
			if v < 1-1e-12 {
				return false
			}
			if v == 1 {
				ones++
			}
		}
		return ones >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
