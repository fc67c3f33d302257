package dag

// Levels maintains a graph's bottom levels, top levels and critical path
// length (communication ignored) under per-task times of which one changes
// at a time — the shape of the allocation procedures' growth loop, where
// each step widens one task. A change re-evaluates the bottom levels of
// every task up to the changed one in topological order, and the top levels
// of every task after it: two contiguous sweeps. Tasks the change cannot
// reach get the value they had; in the graphs the allocator grows nearly
// every level a sweep crosses moves, so telling the two apart costs more
// than it saves.
//
// Every value is produced by the expression the full passes (BottomLevels,
// TopLevels) use, over the same edge order, and depends only on the current
// times: a sweep covers every task whose inputs can have changed, in
// topological order, so the tracked values are bit-identical to a full
// recomputation whatever the history of changes.
//
// A tracker is owned by its graph (see Graph.Levels) and shares the graph's
// confinement to one goroutine.
type Levels struct {
	// Structure. Everything but pos is indexed by topological position, so
	// that a sweep reads and writes contiguous memory: pos maps a task ID to
	// its position, the compressed successor/predecessor rows hold
	// positions in the order of Task.Out and Task.In, entries the positions
	// of the entry tasks.
	pos           []int32
	succOff, succ []int32
	predOff, pred []int32
	entries       []int32

	// Values, by position; fin caches the finish level tl + time that the
	// top levels of a task's successors read.
	time, bl, tl, fin []float64
	length            float64 // critical path length: the maximal bottom level over entry tasks
	aux               []float64

	// Undo state of the last Set: the task's position, its previous time,
	// the previous length and the bottom levels the sweep overwrote.
	undoPos    int
	undoTime   float64
	undoLength float64
	saved      []float64
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
		lv.time[lv.pos[id]] = timeOf(t)
	}
	lv.sweepBottom(len(g.Tasks) - 1)
	lv.sweepTop(0)
	return lv
}

func newLevels(g *Graph) *Levels {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	n, m, k := len(g.Tasks), len(g.Edges), len(g.Entries())
	ints := make([]int32, 3*n+2+2*m+k)
	floats := make([]float64, 5*n)
	lv := &Levels{
		pos:     ints[:n],
		succOff: ints[n : 2*n+1], predOff: ints[2*n+1 : 3*n+2],
		succ: ints[3*n+2 : 3*n+2+m], pred: ints[3*n+2+m : 3*n+2+2*m],
		entries: ints[3*n+2+2*m:],
		time:    floats[:n], bl: floats[n : 2*n], tl: floats[2*n : 3*n],
		fin: floats[3*n : 4*n], saved: floats[4*n:],
	}
	for i, t := range order {
		lv.pos[t.ID] = int32(i)
	}
	so, po := 0, 0
	for i, t := range order {
		lv.succOff[i], lv.predOff[i] = int32(so), int32(po)
		for _, e := range t.out {
			lv.succ[so] = lv.pos[e.To.ID]
			so++
		}
		for _, e := range t.in {
			lv.pred[po] = lv.pos[e.From.ID]
			po++
		}
	}
	lv.succOff[n], lv.predOff[n] = int32(so), int32(po)
	for i, t := range g.Entries() {
		lv.entries[i] = lv.pos[t.ID]
	}
	return lv
}

// Time returns the current time of task id.
func (lv *Levels) Time(id int) float64 { return lv.time[lv.pos[id]] }

// Critical reports whether task id lies on a critical path: its top level
// plus bottom level reaches the critical path length within a relative
// tolerance. These are the tasks the allocator may widen.
func (lv *Levels) Critical(id int) bool {
	const relTol = 1e-9
	p := lv.pos[id]
	return lv.tl[p]+lv.bl[p] >= lv.length*(1-relTol)
}

// Aux returns a tracker-owned buffer of n floats for the caller's own
// per-task working values. Its contents are unspecified.
func (lv *Levels) Aux(n int) []float64 {
	if cap(lv.aux) < n {
		lv.aux = make([]float64, n)
	}
	return lv.aux[:n]
}

// sweepBottom re-evaluates the bottom levels of positions from … 0, in that
// order, and the critical path length.
func (lv *Levels) sweepBottom(from int) {
	time, bl, succ, off := lv.time, lv.bl, lv.succ, lv.succOff
	end := off[from+1]
	for i := from; i >= 0; i-- {
		start := off[i]
		best := 0.0
		for _, s := range succ[start:end] {
			if v := bl[s]; v > best {
				best = v
			}
		}
		bl[i] = time[i] + best
		end = start
	}
	best := 0.0
	for _, e := range lv.entries {
		if v := bl[e]; v > best {
			best = v
		}
	}
	lv.length = best
}

// sweepTop re-evaluates the top and finish levels of positions from … n−1,
// in that order.
func (lv *Levels) sweepTop(from int) {
	time, tl, fin, pred, off := lv.time, lv.tl, lv.fin, lv.pred, lv.predOff
	start := off[from]
	for i := from; i < len(tl); i++ {
		end := off[i+1]
		best := 0.0
		for _, p := range pred[start:end] {
			if v := fin[p]; v > best {
				best = v
			}
		}
		tl[i] = best
		fin[i] = best + time[i]
		start = end
	}
}

// Set changes task id's time to v and brings the bottom levels and the
// critical path length up to date, which it returns. Top levels — and with
// them Critical — are stale until the change is settled by Commit, or
// withdrawn by Revert, which restores the state before Set exactly. A
// caller that only needs to test the new length pays no downward pass.
func (lv *Levels) Set(id int, v float64) float64 {
	p := int(lv.pos[id])
	lv.undoPos, lv.undoTime, lv.undoLength = p, lv.time[p], lv.length
	copy(lv.saved, lv.bl[:p+1])
	lv.time[p] = v
	lv.sweepBottom(p)
	return lv.length
}

// Revert withdraws the last Set.
func (lv *Levels) Revert() {
	p := lv.undoPos
	lv.time[p] = lv.undoTime
	copy(lv.bl[:p+1], lv.saved)
	lv.length = lv.undoLength
}

// Commit settles the last Set: the changed task's finish level and the top
// levels of every task after it are re-evaluated.
func (lv *Levels) Commit() {
	p := lv.undoPos
	lv.fin[p] = lv.tl[p] + lv.time[p]
	lv.sweepTop(p + 1)
}

// Update is Set followed by Commit for a caller that will not Revert: it
// saves nothing to go back to, so a Revert after it is invalid.
func (lv *Levels) Update(id int, v float64) {
	p := int(lv.pos[id])
	lv.time[p] = v
	lv.sweepBottom(p)
	lv.fin[p] = lv.tl[p] + v
	lv.sweepTop(p + 1)
}
