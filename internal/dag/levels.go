package dag

import "slices"

// PrecedenceLevels returns, for each task (indexed by ID), its precedence
// level as defined in §4 of the paper: a task is at level a ≥ 0 if all its
// predecessors are at levels < a and at least one predecessor is at level
// a−1; entry tasks are at level 0. This is the longest path from an entry
// task counted in edges. The result is cached while the graph is
// unmodified; treat it as read-only.
func (g *Graph) PrecedenceLevels() []int {
	if g.cached&hasLevels != 0 {
		return g.levels
	}
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	// Every entry is written, in topological order, before it is read.
	levels := slices.Grow(g.levels[:0], len(g.Tasks))[:len(g.Tasks)]
	for _, t := range order {
		lvl := 0
		for _, e := range t.in {
			if l := levels[e.From.ID] + 1; l > lvl {
				lvl = l
			}
		}
		levels[t.ID] = lvl
	}
	g.levels = levels
	g.cached |= hasLevels
	return levels
}

// LevelSets groups tasks by precedence level, ordered by level, each level
// in ID order. The result is cached while the graph is unmodified; treat it
// as read-only. The constrained allocation procedures test the per-level
// power budget on every growth step, so this cache takes LevelSets off
// their hot path.
func (g *Graph) LevelSets() [][]*Task {
	if g.cached&hasLevelSets != 0 {
		return g.levelSets
	}
	levels := g.PrecedenceLevels()
	depth := 1
	for _, l := range levels {
		depth = max(depth, l+1)
	}
	// A counting sort: the sets are consecutive runs of one flat slice.
	counts := slices.Grow(g.counts[:0], depth)[:depth]
	clear(counts)
	for _, l := range levels {
		counts[l]++
	}
	flat := slices.Grow(g.levelFlat[:0], len(g.Tasks))[:len(g.Tasks)]
	sets := slices.Grow(g.levelSets[:0], depth)[:depth]
	off := 0
	for l, c := range counts {
		sets[l] = flat[off : off : off+c]
		off += c
	}
	for _, t := range g.Tasks {
		l := levels[t.ID]
		sets[l] = append(sets[l], t)
	}
	g.counts, g.levelFlat, g.levelSets = counts, flat, sets
	g.cached |= hasLevelSets
	return sets
}

// MaxWidth returns the size of the largest precedence level: the maximal
// task parallelism the PTG can exploit. This is the "width" characteristic
// used by the PS-width and WPS-width strategies (§6).
func (g *Graph) MaxWidth() int {
	w := 0
	for _, set := range g.LevelSets() {
		if len(set) > w {
			w = len(set)
		}
	}
	return w
}

// Depth returns the number of precedence levels.
func (g *Graph) Depth() int { return len(g.LevelSets()) }

// TimeFunc gives the (estimated) execution time of a task in seconds under
// some allocation; CommFunc gives the (estimated) transfer time of an edge.
// They parameterize bottom levels and critical paths so the same analyses
// serve the allocator (reference-cluster times) and the mapper (placed
// times).
type (
	TimeFunc func(*Task) float64
	CommFunc func(*Edge) float64
)

// ZeroComm is a CommFunc that ignores communication.
func ZeroComm(*Edge) float64 { return 0 }

// BottomLevelsInto is BottomLevels writing into bl, which must have length
// len(g.Tasks). It backs BottomLevels (fresh slice, the caller keeps it),
// the mapper's per-batch buffer and the scratch-buffer paths of
// CriticalPathLength and CriticalPath.
func (g *Graph) BottomLevelsInto(bl []float64, timeOf TimeFunc, commOf CommFunc) {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		best := 0.0
		for _, e := range t.out {
			v := commOf(e) + bl[e.To.ID]
			if v > best {
				best = v
			}
		}
		bl[t.ID] = timeOf(t) + best
	}
}

// scratchLevels returns the graph-owned bottom-level scratch buffer,
// allocating it on first use.
func (g *Graph) scratchLevels() []float64 {
	g.scratchBL = slices.Grow(g.scratchBL[:0], len(g.Tasks))[:len(g.Tasks)]
	return g.scratchBL
}

// BottomLevels returns, indexed by task ID, each task's bottom level: its
// execution time plus the maximum over successors of edge cost plus the
// successor's bottom level — the distance to the end of the application
// (§5). The mapper sorts ready tasks by decreasing bottom level.
func (g *Graph) BottomLevels(timeOf TimeFunc, commOf CommFunc) []float64 {
	bl := make([]float64, len(g.Tasks))
	g.BottomLevelsInto(bl, timeOf, commOf)
	return bl
}

// TopLevels returns, indexed by task ID, the length of the longest path
// from an entry task to the task, excluding the task's own time.
func (g *Graph) TopLevels(timeOf TimeFunc, commOf CommFunc) []float64 {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	tl := make([]float64, len(g.Tasks))
	for _, t := range order {
		best := 0.0
		for _, e := range t.in {
			v := tl[e.From.ID] + timeOf(e.From) + commOf(e)
			if v > best {
				best = v
			}
		}
		tl[t.ID] = best
	}
	return tl
}

// maxEntryLevel returns the critical path length given computed bottom
// levels: the maximal bottom level over entry tasks.
func (g *Graph) maxEntryLevel(bl []float64) float64 {
	best := 0.0
	for _, t := range g.Entries() {
		if bl[t.ID] > best {
			best = bl[t.ID]
		}
	}
	return best
}

// CriticalPathLength returns the length of the critical path: the maximal
// bottom level over entry tasks. This is the "critical path" characteristic
// used by the PS-cp and WPS-cp strategies (§6).
func (g *Graph) CriticalPathLength(timeOf TimeFunc, commOf CommFunc) float64 {
	bl := g.scratchLevels()
	g.BottomLevelsInto(bl, timeOf, commOf)
	return g.maxEntryLevel(bl)
}
