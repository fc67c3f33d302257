package scenario

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"ptgsched/internal/experiment"
)

func mustParse(t *testing.T, src string) *Spec {
	t.Helper()
	s, err := ParseSpec([]byte(src))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	return s
}

func mustExpand(t *testing.T, s *Spec) *Expansion {
	t.Helper()
	e, err := Expand(s)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	return e
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"seed": 1, "repz": 3}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestParseSpecRejectsBadValues(t *testing.T) {
	for _, src := range []string{
		`{"nptgs": [0]}`,
		`{"families": [{"family": "weird"}]}`,
		`{"families": [{"family": "fft", "tasks": [10]}]}`,
		`{"families": [{"family": "random", "k": [3]}]}`,
		`{"platform_specs": [{"name": "p", "clusters": []}]}`,
		`{"platform_specs": [{"name": "p", "clusters": [{"name":"c","procs":0,"speed":1}]}]}`,
		`{"platform_specs": [{"name": "p", "clusters": [{"name":"c","procs":4,"speed":-1}]}]}`,
		`{"online": {"rates": [0]}}`,
		`{"reps": -1}`,
	} {
		if _, err := ParseSpec([]byte(src)); err == nil {
			t.Errorf("spec %s accepted", src)
		}
	}
}

func TestAxisListAndRangeForms(t *testing.T) {
	s := mustParse(t, `{
		"families": [{
			"family": "random",
			"tasks": [10, 20],
			"widths": {"from": 0.2, "to": 0.8, "step": 0.3}
		}]
	}`)
	if got, want := []int(s.Families[0].Tasks), []int{10, 20}; !reflect.DeepEqual(got, want) {
		t.Fatalf("tasks = %v, want %v", got, want)
	}
	w := []float64(s.Families[0].Widths)
	if len(w) != 3 || w[0] != 0.2 || w[2] < 0.799 || w[2] > 0.801 {
		t.Fatalf("widths = %v, want [0.2 0.5 0.8]", w)
	}
}

func TestAxisRejectsNonIntegerAndBadRange(t *testing.T) {
	for _, src := range []string{
		`{"families": [{"family": "random", "tasks": [10.5]}]}`,
		`{"families": [{"family": "random", "widths": {"from": 1, "to": 0, "step": 0.1}}]}`,
		`{"families": [{"family": "random", "widths": {"from": 0, "to": 1, "step": 0}}]}`,
		`{"families": [{"family": "random", "widths": {"from": 0, "to": 1, "steep": 0.5}}]}`,
	} {
		if _, err := ParseSpec([]byte(src)); err == nil {
			t.Errorf("axis %s accepted", src)
		}
	}
}

func TestExpandDefaultsMatchPaperProtocol(t *testing.T) {
	e := mustExpand(t, &Spec{Seed: 42})
	if len(e.Cells) != 1 {
		t.Fatalf("%d cells, want 1", len(e.Cells))
	}
	if got, want := e.NumPoints(), 5*25*4; got != want {
		t.Fatalf("%d points, want %d", got, want)
	}
	if got, want := len(e.Cells[0].Config.Strategies), 8; got != want {
		t.Fatalf("%d strategies, want %d", got, want)
	}
	// Global order is cell → nptgs → rep → platform, and platforms of the
	// same repetition share the scenario seed.
	if e.PointAt(0).Seed != e.PointAt(3).Seed {
		t.Fatal("platforms of one repetition do not share a seed")
	}
	if e.PointAt(0).Seed == e.PointAt(4).Seed {
		t.Fatal("distinct repetitions share a seed")
	}
	for i := 0; i < e.NumPoints(); i++ {
		if p := e.PointAt(i); p.Index != i {
			t.Fatalf("point %d has index %d", i, p.Index)
		}
	}
}

func TestGridExpansionCartesianProduct(t *testing.T) {
	s := mustParse(t, `{
		"nptgs": [2],
		"reps": 1,
		"platforms": ["rennes"],
		"families": [{
			"family": "random",
			"tasks": [10, 20],
			"widths": [0.2, 0.8],
			"regularities": [0.5],
			"densities": [0.5],
			"jumps": [1, 2],
			"complexities": ["mixed"]
		}]
	}`)
	e := mustExpand(t, s)
	if got, want := len(e.Cells), 2*2*1*1*2; got != want {
		t.Fatalf("%d cells, want %d", got, want)
	}
	seen := map[string]bool{}
	for _, c := range e.Cells {
		if seen[c.Label] {
			t.Fatalf("duplicate cell label %q", c.Label)
		}
		seen[c.Label] = true
		if c.Config.Gen == nil {
			t.Fatalf("grid cell %q has no pinned generator", c.Label)
		}
	}
	// A pinned generator must be deterministic given the seed.
	g1 := e.Cells[0].Config.Gen(rand.New(rand.NewSource(7)))
	g2 := e.Cells[0].Config.Gen(rand.New(rand.NewSource(7)))
	if g1.Name != g2.Name || len(g1.Tasks) != len(g2.Tasks) {
		t.Fatal("pinned generator is not deterministic")
	}
}

func TestFFTGridAndStrassenRejection(t *testing.T) {
	e := mustExpand(t, mustParse(t, `{
		"nptgs": [2], "reps": 1, "platforms": ["rennes"],
		"families": [{"family": "fft", "k": [2, 3]}]
	}`))
	if len(e.Cells) != 2 {
		t.Fatalf("%d fft cells, want 2", len(e.Cells))
	}
	if _, err := Expand(&Spec{Families: []FamilySpec{{Family: "strassen", K: Ints{2}}}}); err == nil {
		t.Fatal("strassen grid accepted")
	}
}

func TestInlineHeterogeneousPlatform(t *testing.T) {
	s := mustParse(t, `{
		"seed": 7, "nptgs": [2], "reps": 1,
		"platforms": ["lille"],
		"platform_specs": [{
			"name": "skewed", "shared_switch": true,
			"clusters": [
				{"name": "slow", "procs": 40, "speed": 1.0},
				{"name": "fast", "procs": 8, "speed": 9.0}
			]
		}],
		"families": [{"family": "strassen"}]
	}`)
	e := mustExpand(t, s)
	if len(e.Platforms) != 2 {
		t.Fatalf("%d platforms, want 2", len(e.Platforms))
	}
	if e.Platforms[1].Name != "skewed" || e.Platforms[1].Heterogeneity() < 7.9 {
		t.Fatalf("inline platform not resolved: %v", e.Platforms[1])
	}
	res := mustRun(t, e, e.All(), 1)
	if len(res) != 2 {
		t.Fatalf("%d results, want 2", len(res))
	}
	for _, r := range res {
		for s, m := range r.Makespan {
			if m <= 0 {
				t.Fatalf("point %q strategy %d has makespan %g", r.Name, s, m)
			}
		}
	}
}

// TestAggregateBitIdenticalToExperimentRun is the heart of the engine: a
// spec mirroring Figure 3 must aggregate to exactly the numbers the
// experiment package computes for Fig3Config — same seeds, same reduction
// order, bit-identical floats.
func TestAggregateBitIdenticalToExperimentRun(t *testing.T) {
	const seed, reps = 42, 2
	spec, err := PaperSpec("fig3", seed, reps)
	if err != nil {
		t.Fatal(err)
	}
	e := mustExpand(t, spec)
	tables, err := e.Aggregate(mustRun(t, e, e.All(), 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("%d tables, want 1", len(tables))
	}
	want := experiment.Run(experiment.Fig3Config(seed, reps))
	if !reflect.DeepEqual(tables[0].Result.Points, want.Points) {
		t.Fatalf("aggregated points differ from experiment.Run:\n got %+v\nwant %+v",
			tables[0].Result.Points, want.Points)
	}
	if !reflect.DeepEqual(tables[0].Result.Config.Labels, want.Config.Labels) {
		t.Fatalf("labels differ: %v vs %v", tables[0].Result.Config.Labels, want.Config.Labels)
	}
}

// TestShardsRecombineBitIdentically partitions the same reduced Fig. 3
// campaign into 4 shards, round-trips each shard through JSONL, merges
// them out of order, and requires the aggregate to match the unsharded
// run exactly.
func TestShardsRecombineBitIdentically(t *testing.T) {
	spec, err := PaperSpec("fig3", 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec.NPTGs = []int{2, 4}
	spec.Platforms = []string{"lille", "rennes"}
	e := mustExpand(t, spec)

	full, err := e.Aggregate(mustRun(t, e, e.All(), 2))
	if err != nil {
		t.Fatal(err)
	}

	var merged []PointResult
	for _, shard := range []int{2, 0, 3, 1} { // deliberately out of order
		set, err := e.Shard(shard, 4)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, mustRun(t, e, set, 2)); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, back...)
	}
	if len(merged) != e.NumPoints() {
		t.Fatalf("shards cover %d of %d points", len(merged), e.NumPoints())
	}
	recombined, err := e.Aggregate(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recombined[0].Result.Points, full[0].Result.Points) {
		t.Fatal("recombined shard aggregate differs from unsharded run")
	}
}

func TestShardPartitionExact(t *testing.T) {
	e := mustExpand(t, &Spec{Seed: 1, Reps: 2, NPTGs: []int{2, 3}, Platforms: []string{"lille", "nancy"}})
	seen := make([]bool, e.NumPoints())
	for i := 0; i < 3; i++ {
		set, err := e.Shard(i, 3)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < set.Len(); j++ {
			idx := set.At(j)
			if !set.Contains(idx) {
				t.Fatalf("set does not contain its own member %d", idx)
			}
			if p := e.PointAt(idx); p.Index != idx {
				t.Fatalf("PointAt(%d) has index %d", idx, p.Index)
			}
			if seen[idx] {
				t.Fatalf("point %d in two shards", idx)
			}
			seen[idx] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("point %d in no shard", i)
		}
	}
	if _, err := e.Shard(3, 3); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

func TestParseShard(t *testing.T) {
	i, n, err := ParseShard("2/4")
	if err != nil || i != 2 || n != 4 {
		t.Fatalf("ParseShard(2/4) = %d, %d, %v", i, n, err)
	}
	for _, bad := range []string{"", "x", "4/4", "-1/4", "1/0", "1", "0/4junk", "1/4 2", "a/4", "1/b"} {
		if _, _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}

func TestEstimatePointsMatchesExpansion(t *testing.T) {
	specs := []string{
		`{}`,
		`{"reps": 2, "nptgs": [2, 3], "platforms": ["lille"], "families": [{"family": "strassen"}, {"family": "fft", "k": [2, 3]}]}`,
		`{"families": [{"family": "random", "tasks": [10, 20], "jumps": [1]}], "reps": 2, "nptgs": [2], "platforms": ["lille"]}`,
		`{"online": {"processes": ["burst", "poisson"], "rates": [0.1, 0.2]}, "reps": 1, "nptgs": [2]}`,
	}
	for _, src := range specs {
		s := mustParse(t, src)
		cells, points, err := EstimatePoints(s)
		if err != nil {
			t.Fatalf("EstimatePoints(%s): %v", src, err)
		}
		e := mustExpand(t, s)
		if cells != len(e.Cells) || points != e.NumPoints() {
			t.Errorf("spec %s: estimate (%d cells, %d points) vs expansion (%d, %d)",
				src, cells, points, len(e.Cells), e.NumPoints())
		}
	}
}

func TestExpandRejectsOversizedSweepsWithoutMaterializing(t *testing.T) {
	// Two range axes whose product explodes: the estimate must reject it
	// arithmetically — quickly — before any cell is built.
	src := `{"families": [{
		"family": "random",
		"tasks": {"from": 1, "to": 5000, "step": 1},
		"widths": {"from": 0.001, "to": 1, "step": 0.001}
	}]}`
	s := mustParse(t, src)
	start := time.Now()
	if _, _, err := EstimatePoints(s); err == nil {
		t.Fatal("oversized sweep estimated without error")
	}
	if _, err := Expand(s); err == nil {
		t.Fatal("oversized sweep expanded without error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("oversized-sweep rejection took %v; it must not materialize the grid", elapsed)
	}
	// Absurd reps must not overflow the arithmetic into acceptance.
	if _, _, err := EstimatePoints(mustParse(t, `{"reps": 4000000000000000000}`)); err == nil {
		t.Fatal("absurd reps accepted")
	}
}

func TestAggregateRejectsIncompleteAndDuplicates(t *testing.T) {
	e := mustExpand(t, &Spec{Seed: 1, Reps: 1, NPTGs: []int{2}, Platforms: []string{"lille", "nancy"},
		Families: []FamilySpec{{Family: "strassen"}}})
	res := mustRun(t, e, e.All(), 1)
	if _, err := e.Aggregate(res[:1]); err == nil {
		t.Fatal("incomplete result set accepted")
	}
	dup := append([]PointResult{}, res...)
	dup[1] = dup[0]
	if _, err := e.Aggregate(dup); err == nil {
		t.Fatal("duplicated result accepted")
	}
}

func TestJSONLRoundTripsBitExactly(t *testing.T) {
	e := mustExpand(t, &Spec{Seed: 3, Reps: 1, NPTGs: []int{2}, Platforms: []string{"sophia"},
		Families: []FamilySpec{{Family: "fft"}}})
	res := mustRun(t, e, e.All(), 1)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatal("JSONL round trip not bit-exact")
	}
}

func TestOnlineSweepDeterministicAndLabeled(t *testing.T) {
	s := mustParse(t, `{
		"seed": 11, "nptgs": [3], "reps": 2,
		"platforms": ["rennes"],
		"families": [{"family": "random"}],
		"strategies": [{"name": "ES"}, {"name": "WPS-work"}],
		"online": {"processes": ["burst", "poisson"], "rates": [0.25, 0.5]}
	}`)
	e := mustExpand(t, s)
	// burst collapses the rate axis; poisson sweeps it.
	if got, want := len(e.Cells), 3; got != want {
		t.Fatalf("%d online cells, want %d", got, want)
	}
	if !strings.Contains(e.Cells[1].Label, "poisson@0.25") {
		t.Fatalf("cell label %q missing process point", e.Cells[1].Label)
	}
	r1 := mustRun(t, e, e.All(), 1)
	r2 := mustRun(t, e, e.All(), 3)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("online sweep depends on worker count")
	}
	for _, r := range r1 {
		for s := range r.Makespan {
			if r.Makespan[s] <= 0 || r.Rel[s] < 1 {
				t.Fatalf("point %q has invalid measurement %+v", r.Name, r)
			}
		}
	}
}

func TestFindPointAndMaterialize(t *testing.T) {
	e := mustExpand(t, &Spec{Seed: 5, Reps: 2, NPTGs: []int{2, 4}, Platforms: []string{"lille", "nancy"}})
	p, err := e.FindPoint("random/n=4/rep=1/Nancy")
	if err != nil {
		t.Fatal(err)
	}
	if p.NPTGs != 4 || p.Rep != 1 || e.Platforms[p.Platform].Name != "Nancy" {
		t.Fatalf("wrong point: %+v", p)
	}
	byIdx, err := e.FindPoint("7")
	if err != nil || byIdx.Index != 7 {
		t.Fatalf("FindPoint(7) = %+v, %v", byIdx, err)
	}
	if _, err := e.FindPoint("nope"); err == nil {
		t.Fatal("unknown point accepted")
	}

	pf, graphs, releases := e.Materialize(p)
	if pf.Name != "Nancy" || len(graphs) != 4 || len(releases) != 4 {
		t.Fatalf("materialized %s with %d graphs", pf.Name, len(graphs))
	}
	for _, r := range releases {
		if r != 0 {
			t.Fatal("offline point has nonzero release")
		}
	}
	// Materializing twice yields the same deterministic batch.
	_, graphs2, _ := e.Materialize(p)
	for i := range graphs {
		if graphs[i].Name != graphs2[i].Name {
			t.Fatal("materialization not deterministic")
		}
	}
}

func TestPaperSpecNames(t *testing.T) {
	for _, name := range []string{"fig2", "fig3", "fig4", "fig5"} {
		s, err := PaperSpec(name, 1, 2)
		if err != nil {
			t.Fatalf("PaperSpec(%s): %v", name, err)
		}
		if _, err := Expand(s); err != nil {
			t.Fatalf("Expand(PaperSpec(%s)): %v", name, err)
		}
	}
	if _, err := PaperSpec("fig9", 1, 2); err == nil {
		t.Fatal("unknown paper campaign accepted")
	}
}

func TestPaperSpecFig2MuSweepLabels(t *testing.T) {
	s, err := PaperSpec("fig2", 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := mustExpand(t, s)
	labels := e.Cells[0].Config.Labels
	if len(labels) != len(experiment.MuSweep) || labels[0] != "mu=0.0" {
		t.Fatalf("fig2 labels = %v", labels)
	}
	cfgWant := experiment.Fig2Config(42, 1).Defaults()
	if !reflect.DeepEqual(e.Cells[0].Config.Strategies, cfgWant.Strategies) {
		t.Fatalf("fig2 strategies differ: %v vs %v", e.Cells[0].Config.Strategies, cfgWant.Strategies)
	}
}
