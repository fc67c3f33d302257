package workload

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"ptgsched/internal/daggen"
)

func TestBurstArrivesAtZero(t *testing.T) {
	arrivals := Generate(Spec{Family: daggen.FamilyStrassen, Count: 5, Process: Burst}, rand.New(rand.NewSource(1)))
	if len(arrivals) != 5 {
		t.Fatalf("%d arrivals", len(arrivals))
	}
	for _, a := range arrivals {
		if a.At != 0 {
			t.Fatalf("burst arrival at %g", a.At)
		}
	}
}

func TestUniformSpacing(t *testing.T) {
	arrivals := Generate(Spec{Family: daggen.FamilyRandom, Count: 4, Process: Uniform, Rate: 0.5}, rand.New(rand.NewSource(2)))
	for i, a := range arrivals {
		want := float64(i) * 2
		if math.Abs(a.At-want) > 1e-12 {
			t.Fatalf("arrival %d at %g, want %g", i, a.At, want)
		}
	}
}

func TestPoissonMeanInterArrival(t *testing.T) {
	const rate = 2.0
	arrivals := Generate(Spec{Family: daggen.FamilyStrassen, Count: 2000, Process: Poisson, Rate: rate}, rand.New(rand.NewSource(3)))
	mean := arrivals[len(arrivals)-1].At / float64(len(arrivals)-1)
	if math.Abs(mean-1/rate) > 0.05 {
		t.Fatalf("mean inter-arrival %g, want ~%g", mean, 1/rate)
	}
	if !sort.SliceIsSorted(arrivals, func(i, j int) bool { return arrivals[i].At < arrivals[j].At }) {
		t.Fatal("arrivals not sorted")
	}
}

func TestGenerateValidation(t *testing.T) {
	for _, spec := range []Spec{
		{Family: daggen.FamilyRandom, Count: 0, Process: Burst},
		{Family: daggen.FamilyRandom, Count: 3, Process: Poisson, Rate: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spec %+v accepted", spec)
				}
			}()
			Generate(spec, rand.New(rand.NewSource(1)))
		}()
	}
}

func TestProcessString(t *testing.T) {
	if Burst.String() != "burst" || Poisson.String() != "poisson" || Uniform.String() != "uniform" {
		t.Fatal("Process.String mismatch")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	arrivals := Generate(Spec{Family: daggen.FamilyFFT, Count: 3, Process: Uniform, Rate: 1}, rand.New(rand.NewSource(4)))
	var buf bytes.Buffer
	if err := WriteTrace(&buf, arrivals); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(arrivals) {
		t.Fatalf("%d arrivals after round trip, want %d", len(back), len(arrivals))
	}
	for i := range back {
		if back[i].At != arrivals[i].At {
			t.Errorf("arrival %d time %g != %g", i, back[i].At, arrivals[i].At)
		}
		if len(back[i].Graph.Tasks) != len(arrivals[i].Graph.Tasks) {
			t.Errorf("arrival %d task count mismatch", i)
		}
		if back[i].Graph.TotalWork() != arrivals[i].Graph.TotalWork() {
			t.Errorf("arrival %d work mismatch", i)
		}
	}
}

func TestReadTraceRejectsInvalid(t *testing.T) {
	cases := []string{
		`not json`,
		`[]`,
		`null`,
		`[{"at": -5, "graph": {"name":"x","tasks":[{"name":"a"}],"edges":[]}}]`,
		`[{"at": 1, "graph": {"name":"x","tasks":[{"name":"a"}],"edges":[{"from":0,"to":9}]}}]`,
	}
	for i, c := range cases {
		if _, err := ReadTrace(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// Property: generated workloads are sorted, non-negative and of the
// requested size for every process.
func TestGenerateProperty(t *testing.T) {
	f := func(seed int64, count, proc uint8) bool {
		spec := Spec{
			Family:  daggen.Family(uint64(seed) % 3),
			Count:   int(count%20) + 1,
			Process: Process(proc % 3),
			Rate:    0.1 + float64(proc%10)/5,
		}
		arrivals := Generate(spec, rand.New(rand.NewSource(seed)))
		if len(arrivals) != spec.Count {
			return false
		}
		prev := 0.0
		for _, a := range arrivals {
			if a.At < prev || a.Graph == nil {
				return false
			}
			prev = a.At
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
