package daggen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ptgsched/internal/dag"
)

// graphDiff describes the first difference between two graphs — name,
// tasks (ID, name, costs bit for bit, adjacency in order), edges (endpoints,
// bytes) and the structural analyses — or returns "" for equal graphs.
func graphDiff(a, b *dag.Graph) string {
	if a.Name != b.Name {
		return fmt.Sprintf("name %q vs %q", a.Name, b.Name)
	}
	if len(a.Tasks) != len(b.Tasks) || len(a.Edges) != len(b.Edges) {
		return fmt.Sprintf("%d tasks %d edges vs %d tasks %d edges", len(a.Tasks), len(a.Edges), len(b.Tasks), len(b.Edges))
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	edgeIDs := func(es []*dag.Edge) (ids []int) {
		for _, e := range es {
			ids = append(ids, e.From.ID, e.To.ID)
		}
		return ids
	}
	for i, ta := range a.Tasks {
		tb := b.Tasks[i]
		if ta.ID != tb.ID || ta.Name != tb.Name || !same(ta.DataElems, tb.DataElems) ||
			!same(ta.SeqGFlop, tb.SeqGFlop) || !same(ta.Alpha, tb.Alpha) {
			return fmt.Sprintf("task %d: %+v vs %+v", i, *ta, *tb)
		}
		if !slices.Equal(edgeIDs(ta.In()), edgeIDs(tb.In())) || !slices.Equal(edgeIDs(ta.Out()), edgeIDs(tb.Out())) {
			return fmt.Sprintf("task %d: adjacency differs", i)
		}
	}
	for i, ea := range a.Edges {
		eb := b.Edges[i]
		if ea.From.ID != eb.From.ID || ea.To.ID != eb.To.ID || !same(ea.Bytes, eb.Bytes) {
			return fmt.Sprintf("edge %d: %d->%d %g vs %d->%d %g", i, ea.From.ID, ea.To.ID, ea.Bytes, eb.From.ID, eb.To.ID, eb.Bytes)
		}
	}
	ids := func(ts []*dag.Task) (ids []int) {
		for _, t := range ts {
			ids = append(ids, t.ID)
		}
		return ids
	}
	ta, _ := a.TopoOrder()
	tb, _ := b.TopoOrder()
	if !slices.Equal(ids(ta), ids(tb)) {
		return "topological orders differ"
	}
	if !slices.Equal(a.PrecedenceLevels(), b.PrecedenceLevels()) {
		return "precedence levels differ"
	}
	sa, sb := a.LevelSets(), b.LevelSets()
	if len(sa) != len(sb) {
		return "level set counts differ"
	}
	for l := range sa {
		if !slices.Equal(ids(sa[l]), ids(sb[l])) {
			return fmt.Sprintf("level set %d differs", l)
		}
	}
	if !slices.Equal(ids(a.Entries()), ids(b.Entries())) || !slices.Equal(ids(a.Exits()), ids(b.Exits())) {
		return "entries or exits differ"
	}
	if !same(a.CriticalPathLength(seqTime), b.CriticalPathLength(seqTime)) {
		return "critical path lengths differ"
	}
	la, lb := a.Levels(seqTime), b.Levels(seqTime)
	for i := range a.Tasks {
		if la.Critical(i) != lb.Critical(i) {
			return fmt.Sprintf("level trackers disagree on task %d", i)
		}
	}
	return ""
}

func seqTime(t *dag.Task) float64 { return t.SeqGFlop }

// analyze fills every analysis buffer of g.
func analyze(g *dag.Graph) {
	g.LevelSets()
	g.Entries()
	g.Exits()
	g.CriticalPathLength(seqTime)
	g.Levels(seqTime)
}

// Generating into a recycled graph is generating into a fresh one. For
// every family and 200 seeds, a graph that held a larger graph, then a
// smaller one — with their analyses computed, so every buffer holds stale
// content — is regenerated in place and must equal Generate's graph
// field for field, analyses included, having drawn exactly what Generate
// draws from r.
func TestGenerateIntoRecycledMatchesGenerate(t *testing.T) {
	larger := RandomConfig{Tasks: 120, Width: 0.8, Regularity: 0.2, Density: 0.8, Jump: 4, Complexity: Mixed}
	smaller := RandomConfig{Tasks: 5, Width: 0.2, Regularity: 0.8, Density: 0.2, Jump: 1, Complexity: AllLinear}
	for _, f := range []Family{FamilyRandom, FamilyFFT, FamilyStrassen} {
		g := new(dag.Graph)
		for seed := int64(0); seed < 200; seed++ {
			scrap := rand.New(rand.NewSource(^seed))
			for _, cfg := range []RandomConfig{larger, smaller} {
				RandomInto(g, cfg, scrap)
				analyze(g)
			}
			r, fresh := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			GenerateInto(g, f, r)
			want := Generate(f, fresh)
			if d := graphDiff(g, want); d != "" {
				t.Fatalf("%v seed %d: recycled graph differs from a fresh one: %s", f, seed, d)
			}
			if r.Int63() != fresh.Int63() {
				t.Fatalf("%v seed %d: the recycled generation drew a different number of values", f, seed)
			}
		}
	}
}
