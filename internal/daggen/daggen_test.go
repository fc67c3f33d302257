package daggen

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ptgsched/internal/cost"
	"ptgsched/internal/dag"
)

func TestRandomGraphBasicInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range PaperTaskCounts {
		cfg := RandomConfig{Tasks: n, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 2, Complexity: Mixed}
		g := Random(cfg, r)
		if len(g.Tasks) != n {
			t.Errorf("n=%d: got %d tasks", n, len(g.Tasks))
		}
		if err := g.Validate(true); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestRandomGraphDeterministicPerSeed(t *testing.T) {
	cfg := RandomConfig{Tasks: 20, Width: 0.5, Regularity: 0.2, Density: 0.8, Jump: 4, Complexity: Mixed}
	g1 := Random(cfg, rand.New(rand.NewSource(42)))
	g2 := Random(cfg, rand.New(rand.NewSource(42)))
	if len(g1.Edges) != len(g2.Edges) {
		t.Fatalf("edge counts differ: %d vs %d", len(g1.Edges), len(g2.Edges))
	}
	for i := range g1.Tasks {
		if g1.Tasks[i].SeqGFlop != g2.Tasks[i].SeqGFlop {
			t.Fatalf("task %d works differ", i)
		}
	}
}

func TestRandomWidthShapesGraph(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	narrow := Random(RandomConfig{Tasks: 50, Width: 0.2, Regularity: 0.8, Density: 0.5, Jump: 1, Complexity: Mixed}, r)
	wide := Random(RandomConfig{Tasks: 50, Width: 0.8, Regularity: 0.8, Density: 0.5, Jump: 1, Complexity: Mixed}, r)
	if narrow.MaxWidth() >= wide.MaxWidth() {
		t.Errorf("narrow width %d >= wide width %d", narrow.MaxWidth(), wide.MaxWidth())
	}
	if narrow.Depth() <= wide.Depth() {
		t.Errorf("narrow depth %d <= wide depth %d", narrow.Depth(), wide.Depth())
	}
}

func TestRandomDensityAddsEdges(t *testing.T) {
	sparseEdges, denseEdges := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		sparse := Random(RandomConfig{Tasks: 50, Width: 0.8, Regularity: 0.8, Density: 0.2, Jump: 1, Complexity: Mixed}, rand.New(rand.NewSource(seed)))
		dense := Random(RandomConfig{Tasks: 50, Width: 0.8, Regularity: 0.8, Density: 0.8, Jump: 1, Complexity: Mixed}, rand.New(rand.NewSource(seed)))
		sparseEdges += len(sparse.Edges)
		denseEdges += len(dense.Edges)
	}
	if denseEdges <= sparseEdges {
		t.Errorf("dense graphs have %d edges, sparse %d", denseEdges, sparseEdges)
	}
}

func TestRandomJumpOneStaysAdjacent(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := Random(RandomConfig{Tasks: 30, Width: 0.5, Regularity: 0.5, Density: 0.8, Jump: 1, Complexity: Mixed}, rand.New(rand.NewSource(seed)))
		lv := g.PrecedenceLevels()
		for _, e := range g.Edges {
			if d := lv[e.To.ID] - lv[e.From.ID]; d != 1 {
				t.Fatalf("jump=1 graph has edge spanning %d levels", d)
			}
		}
	}
}

func TestRandomTaskParamsWithinPaperBounds(t *testing.T) {
	g := Random(RandomConfig{Tasks: 50, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 2, Complexity: Mixed}, rand.New(rand.NewSource(3)))
	for _, task := range g.Tasks {
		if task.DataElems < cost.MinDataElems || task.DataElems > cost.MaxDataElems {
			t.Errorf("task %s: d = %g outside [4M,121M]", task.Name, task.DataElems)
		}
		if task.Alpha < 0 || task.Alpha > cost.AlphaMax {
			t.Errorf("task %s: alpha = %g outside [0,0.25]", task.Name, task.Alpha)
		}
		if task.SeqGFlop <= 0 {
			t.Errorf("task %s: non-positive work", task.Name)
		}
	}
	for _, e := range g.Edges {
		if e.Bytes != cost.EdgeBytes(e.From.DataElems) {
			t.Errorf("edge %s->%s: bytes %g != 8*d of source", e.From.Name, e.To.Name, e.Bytes)
		}
	}
}

func TestRandomConfigValidation(t *testing.T) {
	bad := []RandomConfig{
		{Tasks: 2, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 1},
		{Tasks: 10, Width: 0, Regularity: 0.5, Density: 0.5, Jump: 1},
		{Tasks: 10, Width: 1.5, Regularity: 0.5, Density: 0.5, Jump: 1},
		{Tasks: 10, Width: 0.5, Regularity: -0.1, Density: 0.5, Jump: 1},
		{Tasks: 10, Width: 0.5, Regularity: 0.5, Density: 2, Jump: 1},
		{Tasks: 10, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestFFTTaskCounts(t *testing.T) {
	// Classical 2n-1 + n·log n counts for the paper's 4-, 8-, 16-point
	// FFTs. (The paper lists 15, 37, 95; the standard construction gives
	// 39 for the 8-point case.)
	want := map[int]int{2: 15, 3: 39, 4: 95}
	for k, n := range want {
		g := FFT(k, rand.New(rand.NewSource(1)))
		if len(g.Tasks) != n {
			t.Errorf("FFT(%d) has %d tasks, want %d", k, len(g.Tasks), n)
		}
	}
}

func TestFFTStructure(t *testing.T) {
	g := FFT(3, rand.New(rand.NewSource(2)))
	if err := g.Validate(false); err != nil {
		t.Fatal(err)
	}
	if n := len(g.Entries()); n != 1 {
		t.Errorf("FFT has %d entries, want 1", n)
	}
	if n := len(g.Exits()); n != 8 {
		t.Errorf("FFT(3) has %d exits, want 8 (last butterfly row)", n)
	}
	// Depth: k+1 tree levels + k butterfly stages.
	if d := g.Depth(); d != 7 {
		t.Errorf("FFT(3) depth = %d, want 7", d)
	}
	if w := g.MaxWidth(); w != 8 {
		t.Errorf("FFT(3) max width = %d, want 8", w)
	}
}

func TestFFTLevelsAreRegular(t *testing.T) {
	// §7: "every tasks in a given level have the same cost".
	g := FFT(4, rand.New(rand.NewSource(5)))
	for l, set := range g.LevelSets() {
		for _, task := range set[1:] {
			if task.SeqGFlop != set[0].SeqGFlop {
				t.Fatalf("level %d has tasks with different costs", l)
			}
		}
	}
}

func TestFFTButterflyWiring(t *testing.T) {
	g := FFT(2, rand.New(rand.NewSource(1)))
	// Every butterfly task has exactly 2 predecessors.
	for _, task := range g.Tasks {
		if len(task.In()) > 0 && len(task.Name) > 4 && task.Name[:4] == "bfly" {
			if n := len(task.In()); n != 2 {
				t.Errorf("butterfly task %s has %d preds, want 2", task.Name, n)
			}
		}
	}
}

func TestStrassenShape(t *testing.T) {
	g := Strassen(rand.New(rand.NewSource(9)))
	if len(g.Tasks) != StrassenTaskCount {
		t.Fatalf("Strassen has %d tasks, want %d", len(g.Tasks), StrassenTaskCount)
	}
	if err := g.Validate(true); err != nil {
		t.Fatal(err)
	}
	if d := g.Depth(); d != 5 {
		t.Errorf("depth = %d, want 5", d)
	}
	if w := g.MaxWidth(); w != 10 {
		t.Errorf("max width = %d, want 10", w)
	}
	sizes := []int{1, 10, 7, 6, 1}
	for l, set := range g.LevelSets() {
		if len(set) != sizes[l] {
			t.Errorf("level %d has %d tasks, want %d", l, len(set), sizes[l])
		}
	}
}

func TestStrassenGraphsShareShape(t *testing.T) {
	// §7: all Strassen PTGs have the same shape and maximal width; only
	// costs differ.
	g1 := Strassen(rand.New(rand.NewSource(1)))
	g2 := Strassen(rand.New(rand.NewSource(2)))
	if g1.MaxWidth() != g2.MaxWidth() || g1.Depth() != g2.Depth() || len(g1.Edges) != len(g2.Edges) {
		t.Fatal("two Strassen graphs differ in shape")
	}
	same := true
	for i := range g1.Tasks {
		if g1.Tasks[i].SeqGFlop != g2.Tasks[i].SeqGFlop {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two differently-seeded Strassen graphs have identical costs")
	}
}

func TestStrassenMultiplicationsDominate(t *testing.T) {
	g := Strassen(rand.New(rand.NewSource(4)))
	var mulWork, addWork float64
	for _, task := range g.Tasks {
		if task.Name[0] == 'P' {
			mulWork += task.SeqGFlop
		} else {
			addWork += task.SeqGFlop
		}
	}
	if mulWork <= addWork {
		t.Errorf("multiplication work %g should dominate addition work %g", mulWork, addWork)
	}
}

func TestGenerateFamilies(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, f := range []Family{FamilyRandom, FamilyFFT, FamilyStrassen} {
		g := Generate(f, r)
		if err := g.Validate(false); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

func TestFamilyString(t *testing.T) {
	if FamilyRandom.String() != "random" || FamilyFFT.String() != "fft" || FamilyStrassen.String() != "strassen" {
		t.Fatal("Family.String mismatch")
	}
}

func TestComplexityModeString(t *testing.T) {
	for m, want := range map[ComplexityMode]string{AllLinear: "all-linear", AllNLogN: "all-nlogn", AllMatrix: "all-matrix", Mixed: "mixed"} {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

// Property: every random configuration from the paper grid yields a valid
// single-entry single-exit DAG with the requested task count.
func TestRandomGraphProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := PaperRandomConfig(r)
		g := Random(cfg, r)
		if len(g.Tasks) != cfg.Tasks {
			return false
		}
		if err := g.Validate(true); err != nil {
			return false
		}
		// Level structure: each task has a predecessor in its previous
		// precedence level (by construction).
		lv := g.PrecedenceLevels()
		for _, task := range g.Tasks {
			if lv[task.ID] == 0 {
				continue
			}
			ok := false
			for _, e := range task.In() {
				if lv[e.From.ID] == lv[task.ID]-1 {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: bottom levels of generated graphs are positive and entry tasks
// carry the critical path.
func TestGeneratedBottomLevelProperty(t *testing.T) {
	f := func(seed int64, fam uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := Generate(Family(fam%3), r)
		timeOf := func(task *dag.Task) float64 { return task.SeqGFlop }
		bl := g.BottomLevels(timeOf)
		cp := g.CriticalPathLength(timeOf)
		best := 0.0
		for _, task := range g.Tasks {
			if bl[task.ID] <= 0 {
				return false
			}
			if bl[task.ID] > best {
				best = bl[task.ID]
			}
		}
		return best == cp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Graph names come from tables made once, for the paper grid's random
// shapes and every FFT exponent; they must be the strings the generators
// formatted per graph before, and an off-grid shape must still get its
// formatted name.
func TestGraphNamesMatchFormat(t *testing.T) {
	format := func(c RandomConfig) string {
		return fmt.Sprintf("random-n%d-w%.1f-r%.1f-d%.1f-j%d", c.Tasks, c.Width, c.Regularity, c.Density, c.Jump)
	}
	var shapes []RandomConfig
	for _, n := range PaperTaskCounts {
		for _, w := range PaperWidths {
			for _, r := range PaperRegularities {
				for _, d := range PaperDensities {
					for _, j := range PaperJumps {
						shapes = append(shapes, RandomConfig{Tasks: n, Width: w, Regularity: r, Density: d, Jump: j})
					}
				}
			}
		}
	}
	if len(shapes) != 108 || len(randomNames) != len(shapes) {
		t.Fatalf("%d grid shapes, %d table names; want 108 of each", len(shapes), len(randomNames))
	}
	shapes = append(shapes,
		RandomConfig{Tasks: 7, Width: 0.35, Regularity: 0, Density: 1, Jump: 3},
		RandomConfig{Tasks: 100, Width: 0.5, Regularity: 0.2, Density: 0.8, Jump: 2},
		RandomConfig{Tasks: 20, Width: 0.25, Regularity: 0.8, Density: 0.2, Jump: 1},
		RandomConfig{Tasks: 50, Width: 1, Regularity: 0.05, Density: 0.5, Jump: 9},
	)
	g := new(dag.Graph)
	r := rand.New(rand.NewSource(3))
	for _, c := range shapes {
		RandomInto(g, c, r)
		if want := format(c); g.Name != want {
			t.Errorf("%+v: named %q, want %q", c, g.Name, want)
		}
	}
	for k := 1; k <= 20; k++ {
		if want := fmt.Sprintf("fft-%dpt", 1<<k); fftNames[k] != want {
			t.Errorf("k=%d: table name %q, want %q", k, fftNames[k], want)
		}
	}
	for _, k := range append([]int{1, 5}, PaperFFTExponents...) {
		FFTInto(g, k, r)
		if want := fmt.Sprintf("fft-%dpt", 1<<k); g.Name != want {
			t.Errorf("k=%d: named %q, want %q", k, g.Name, want)
		}
	}
}

// A paper-grid random shape regenerated into a warm graph, one of 16 seeds
// per iteration: the graph has held each seed's draw before, so neither
// its storage nor its name allocates (0 allocs/op).
func BenchmarkRandomIntoWarm(b *testing.B) {
	cfg := RandomConfig{Tasks: 50, Width: 0.5, Regularity: 0.2, Density: 0.8, Jump: 2, Complexity: Mixed}
	g := new(dag.Graph)
	r := rand.New(rand.NewSource(0))
	for seed := int64(0); seed < 16; seed++ {
		r.Seed(seed)
		RandomInto(g, cfg, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i % 16))
		RandomInto(g, cfg, r)
	}
}
