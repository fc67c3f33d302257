package dag

// Levels maintains a graph's bottom levels, top levels and critical path
// length (communication ignored) under per-task times of which one changes
// at a time — the shape of the allocation procedures' growth loop, where
// each step widens one task. A change re-evaluates bottom levels only up
// through the task's ancestors and top levels only down through its
// descendants, stopping wherever a value comes out unchanged.
//
// Every value is produced by the expression the full passes (BottomLevels,
// TopLevels) use, over the same edge order, and depends only on the current
// times: a node is re-evaluated whenever one of its inputs changed, in
// topological order, so the tracked values are bit-identical to a full
// recomputation whatever the history of changes.
//
// A tracker is owned by its graph (see Graph.Levels) and shares the graph's
// confinement to one goroutine.
type Levels struct {
	g *Graph

	// Structure, indexed by task ID: the topological order and its inverse,
	// and successor/predecessor lists in compressed rows that keep the
	// order of Task.Out and Task.In.
	order, pos    []int32
	succOff, succ []int32
	predOff, pred []int32

	time, bl, tl []float64
	length       float64 // critical path length: the maximal bottom level over entry tasks
	aux          []float64

	// dirty flags, by topological position, the nodes awaiting
	// re-evaluation during one propagation; all false between calls.
	dirty []bool

	// Undo state of the last Set: the task, its previous time, the
	// previous length and every bottom level the propagation overwrote.
	undoID     int
	undoTime   float64
	undoLength float64
	journal    []savedLevel
}

type savedLevel struct {
	id int32
	bl float64
}

// Levels returns the graph-owned level tracker, reset to the times timeOf
// gives. The tracker is valid until the next Levels call on g or the next
// mutation of g.
func (g *Graph) Levels(timeOf TimeFunc) *Levels {
	if g.tracker == nil {
		g.tracker = newLevels(g)
	}
	lv := g.tracker
	for id, t := range g.Tasks {
		lv.time[id] = timeOf(t)
	}
	for i := len(lv.order) - 1; i >= 0; i-- {
		u := int(lv.order[i])
		lv.bl[u] = lv.bottomOf(u)
	}
	for _, u := range lv.order {
		lv.tl[u] = lv.topOf(int(u))
	}
	lv.length = g.maxEntryLevel(lv.bl)
	return lv
}

func newLevels(g *Graph) *Levels {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	n, m := len(g.Tasks), len(g.Edges)
	ints := make([]int32, 4*n+2+2*m)
	floats := make([]float64, 3*n)
	lv := &Levels{
		g:     g,
		order: ints[:n], pos: ints[n : 2*n],
		succOff: ints[2*n : 3*n+1], predOff: ints[3*n+1 : 4*n+2],
		succ: ints[4*n+2 : 4*n+2+m], pred: ints[4*n+2+m:],
		time: floats[:n], bl: floats[n : 2*n], tl: floats[2*n:],
		dirty: make([]bool, n),
	}
	for i, t := range order {
		lv.order[i] = int32(t.ID)
		lv.pos[t.ID] = int32(i)
	}
	so, po := 0, 0
	for id, t := range g.Tasks {
		lv.succOff[id], lv.predOff[id] = int32(so), int32(po)
		for _, e := range t.out {
			lv.succ[so] = int32(e.To.ID)
			so++
		}
		for _, e := range t.in {
			lv.pred[po] = int32(e.From.ID)
			po++
		}
	}
	lv.succOff[n], lv.predOff[n] = int32(so), int32(po)
	return lv
}

// Time returns the current time of task id.
func (lv *Levels) Time(id int) float64 { return lv.time[id] }

// Critical reports whether task id lies on a critical path: its top level
// plus bottom level reaches the critical path length within a relative
// tolerance. These are the tasks the allocator may widen.
func (lv *Levels) Critical(id int) bool {
	const relTol = 1e-9
	return lv.tl[id]+lv.bl[id] >= lv.length*(1-relTol)
}

// Aux returns a tracker-owned buffer of n floats for the caller's own
// per-task working values. Its contents are unspecified.
func (lv *Levels) Aux(n int) []float64 {
	if cap(lv.aux) < n {
		lv.aux = make([]float64, n)
	}
	return lv.aux[:n]
}

func (lv *Levels) bottomOf(u int) float64 {
	best := 0.0
	for _, s := range lv.succ[lv.succOff[u]:lv.succOff[u+1]] {
		if v := lv.bl[s]; v > best {
			best = v
		}
	}
	return lv.time[u] + best
}

func (lv *Levels) topOf(u int) float64 {
	best := 0.0
	for _, p := range lv.pred[lv.predOff[u]:lv.predOff[u+1]] {
		if v := lv.tl[p] + lv.time[p]; v > best {
			best = v
		}
	}
	return best
}

// mark flags task id for re-evaluation and reports whether it was not
// flagged already.
func (lv *Levels) mark(id int32) bool {
	i := lv.pos[id]
	fresh := !lv.dirty[i]
	lv.dirty[i] = true
	return fresh
}

// Set changes task id's time to v and brings the bottom levels and the
// critical path length up to date, which it returns. Top levels — and with
// them Critical — are stale until the change is settled by Commit, or
// withdrawn by Revert, which restores the state before Set exactly. A
// caller that only needs to test the new length pays no downward pass.
func (lv *Levels) Set(id int, v float64) float64 {
	lv.undoID, lv.undoTime, lv.undoLength = id, lv.time[id], lv.length
	lv.journal = lv.journal[:0]
	lv.time[id] = v
	pending := lv.relaxBottom(id)
	for i := lv.pos[id] - 1; pending > 0; i-- {
		if lv.dirty[i] {
			lv.dirty[i] = false
			pending += lv.relaxBottom(int(lv.order[i])) - 1
		}
	}
	lv.length = lv.g.maxEntryLevel(lv.bl)
	return lv.length
}

// relaxBottom re-evaluates u's bottom level; when it changed, the old
// value is journaled and the predecessors it can reach are marked. It
// returns the number of newly marked nodes.
func (lv *Levels) relaxBottom(u int) int {
	old, v := lv.bl[u], lv.bottomOf(u)
	if v == old {
		return 0
	}
	lv.journal = append(lv.journal, savedLevel{int32(u), old})
	lv.bl[u] = v
	marked := 0
	for _, p := range lv.pred[lv.predOff[u]:lv.predOff[u+1]] {
		// A successor that shrank and was not p's longest (its old level
		// falls short of reproducing p's) leaves p's maximum where it was.
		if v <= old && lv.time[p]+old < lv.bl[p] {
			continue
		}
		if lv.mark(p) {
			marked++
		}
	}
	return marked
}

// Revert withdraws the last Set.
func (lv *Levels) Revert() {
	lv.time[lv.undoID] = lv.undoTime
	for _, s := range lv.journal {
		lv.bl[s.id] = s.bl
	}
	lv.length = lv.undoLength
}

// Commit settles the last Set: top levels are re-evaluated down through the
// changed task's descendants.
func (lv *Levels) Commit() {
	id := lv.undoID
	pending := lv.markBelow(id, lv.tl[id]+lv.undoTime)
	for i := lv.pos[id] + 1; pending > 0; i++ {
		if lv.dirty[i] {
			lv.dirty[i] = false
			pending--
			u := int(lv.order[i])
			if old, v := lv.tl[u], lv.topOf(u); v != old {
				lv.tl[u] = v
				pending += lv.markBelow(u, old+lv.time[u])
			}
		}
	}
}

// markBelow marks the successors of u that its changed top level or time
// can reach, given the finish level (top level plus time) u had before, and
// returns the number of newly marked nodes.
func (lv *Levels) markBelow(u int, old float64) int {
	v := lv.tl[u] + lv.time[u]
	marked := 0
	for _, s := range lv.succ[lv.succOff[u]:lv.succOff[u+1]] {
		// As in relaxBottom: a predecessor that finishes no later than
		// before, and did not set s's top level, cannot move it.
		if v <= old && old < lv.tl[s] {
			continue
		}
		if lv.mark(s) {
			marked++
		}
	}
	return marked
}
