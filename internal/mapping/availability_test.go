package mapping

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// checkAvailabilityProgram runs a program of reloads and reservations on
// one Availability beside the seed's representation — a plain times vector,
// stable-sorted by time whenever processors are picked — and requires, after
// every step, slots sorted by (time, proc) that are a permutation of the
// processors carrying the vector's times, and from every Reserve the
// processors the stable sort selects.
func checkAvailabilityProgram(t *testing.T, procs int, steps int, r *rand.Rand) {
	t.Helper()
	var a Availability
	times := make([]float64, procs)
	// Few distinct values, so ties between processors are the common case.
	draw := func() float64 { return float64(r.Intn(6)) / 2 }
	reload := func() {
		for i := range times {
			times[i] = draw()
		}
		a.Load(times)
	}
	check := func(step int) {
		t.Helper()
		if len(a.slots) != procs {
			t.Fatalf("step %d: %d slots for %d processors", step, len(a.slots), procs)
		}
		seen := make([]bool, procs)
		for i, s := range a.slots {
			if i > 0 {
				if prev := a.slots[i-1]; prev.time > s.time || prev.time == s.time && prev.proc >= s.proc {
					t.Fatalf("step %d: slots %d and %d out of (time, proc) order: %v", step, i-1, i, a.slots)
				}
			}
			if s.proc < 0 || s.proc >= procs || seen[s.proc] {
				t.Fatalf("step %d: slots are not a permutation of the processors: %v", step, a.slots)
			}
			seen[s.proc] = true
			if s.time != times[s.proc] {
				t.Fatalf("step %d: processor %d free at %g, the vector says %g", step, s.proc, s.time, times[s.proc])
			}
		}
	}
	reload()
	check(-1)
	for step := 0; step < steps; step++ {
		if r.Intn(8) == 0 {
			reload()
			check(step)
			continue
		}
		q := 1 + r.Intn(procs)
		// The seed: processor indices stable-sorted by availability, the
		// first q taken, in ascending order.
		order := make([]int, procs)
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(times[i], times[j]) })
		want := slices.Clone(order[:q])
		slices.Sort(want)
		if got, at := a.Earliest(q), times[order[q-1]]; got != at {
			t.Fatalf("step %d: Earliest(%d) = %g, the sorted vector says %g", step, q, got, at)
		}
		// Any end, ties with other processors' times included: the merge
		// does not need the mappers' end > Earliest(q).
		end := float64(r.Intn(10)) / 2
		got := a.Reserve(q, end)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: Reserve(%d, %g) = %v, the stable sort selects %v", step, q, end, got, want)
		}
		for _, i := range want {
			times[i] = end
		}
		check(step)
	}
}

func TestAvailabilityMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for _, procs := range []int{1, 2, 3, 7, 16, 64} {
		for rep := 0; rep < 20; rep++ {
			checkAvailabilityProgram(t, procs, 60, r)
		}
	}
}

func FuzzAvailabilityMatchesStableSort(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(10))
	f.Add(int64(2), uint8(2), uint8(40))
	f.Add(int64(3), uint8(13), uint8(80))
	f.Add(int64(4), uint8(64), uint8(200))
	f.Add(int64(5), uint8(255), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, procs, steps uint8) {
		checkAvailabilityProgram(t, 1+int(procs), int(steps), rand.New(rand.NewSource(seed)))
	})
}
