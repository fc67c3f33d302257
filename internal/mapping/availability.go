package mapping

import (
	"cmp"
	"math"
	"slices"

	"ptgsched/internal/cost"
	"ptgsched/internal/dag"
)

// procSlot is one processor's availability: the time at which it becomes
// free under the reservations made so far.
type procSlot struct {
	time float64
	proc int
}

// Availability maintains one cluster's processor availability as a
// persistently sorted structure: slots ordered by (time, proc). Every
// candidate evaluation reads the q-th earliest time in O(1) and every
// reservation restores the order with a single linear merge, replacing the
// seed's per-candidate copy-and-sort and per-placement stable sort. Both
// mappers run on it: Map starts with every processor free at 0, the online
// driver reloads it at every rebalance. The zero value is an empty cluster;
// Load keeps the buffers of earlier loads.
type Availability struct {
	slots []procSlot
	// scratch is the merge buffer reused across reservations.
	scratch []procSlot
}

// Load replaces the structure's content: processor i frees up at times[i].
// The processors that free up the earliest take their places in one scan and
// only the others are sorted: the online driver reloads at every rebalance,
// when most processors are free at the clock.
func (a *Availability) Load(times []float64) {
	a.slots = slices.Grow(a.slots[:0], len(times))
	a.scratch = slices.Grow(a.scratch[:0], len(times))
	if len(times) == 0 {
		return
	}
	earliest := slices.Min(times)
	later := a.scratch[:0]
	for i, t := range times {
		if t == earliest {
			a.slots = append(a.slots, procSlot{time: t, proc: i})
		} else {
			later = append(later, procSlot{time: t, proc: i})
		}
	}
	// In processor order already, so a stable sort by time alone finishes.
	slices.SortStableFunc(later, func(x, y procSlot) int { return cmp.Compare(x.time, y.time) })
	a.slots = append(a.slots, later...)
}

// Best is the paper's §5 placement step on one cluster, the one both mappers
// evaluate a cluster through: task t, whose data is there at ready, takes the
// want earliest processors of a cluster of the given speed, and with packing
// the allocation shrinks while the task starts earlier and finishes no later.
func (a *Availability) Best(t *dag.Task, speed float64, want int, ready float64, packing bool) (procs int, start, end float64) {
	slots := a.slots
	procs = want
	start = math.Max(ready, slots[want-1].time)
	end = start + cost.TaskTime(t, speed, want)
	if !packing {
		return procs, start, end
	}
	// Allocation packing (§5): accept a narrower allocation iff the task
	// starts earlier and finishes no later. Among admissible widths prefer
	// the earliest finish, then the earliest start, then the widest
	// allocation.
	for q := want - 1; q >= 1; q-- {
		st := math.Max(ready, slots[q-1].time)
		if st >= start {
			// Narrower cannot start later than a wider allocation's
			// processors allow; once start stops improving, no smaller q
			// will help (slots are sorted by time).
			break
		}
		if en := st + cost.TaskTime(t, speed, q); en <= end {
			procs, start, end = q, st, en
		}
	}
	return procs, start, end
}

// Reserve books the len(procs) earliest-available processors until end and
// writes their indices into procs in ascending order; the caller owns the
// storage (both mappers hand out pieces of blocks they allocate in bulk).
// The (time, proc) order matches the seed's stable sort of processor
// indices by availability, so the chosen set is identical.
func (a *Availability) Reserve(procs []int, end float64) {
	q := len(procs)
	for i := range procs {
		procs[i] = a.slots[i].proc
	}
	slices.Sort(procs)

	// Merge the untouched tail (already sorted) with the q re-reserved
	// slots (all at time end, ascending proc) back into sorted order.
	tail := a.slots[q:]
	merged := a.scratch[:0]
	ti, ni := 0, 0
	for ti < len(tail) && ni < q {
		nt := procSlot{time: end, proc: procs[ni]}
		if tail[ti].time < nt.time || (tail[ti].time == nt.time && tail[ti].proc < nt.proc) {
			merged = append(merged, tail[ti])
			ti++
		} else {
			merged = append(merged, nt)
			ni++
		}
	}
	merged = append(merged, tail[ti:]...)
	for ; ni < q; ni++ {
		merged = append(merged, procSlot{time: end, proc: procs[ni]})
	}
	a.scratch = a.slots[:0]
	a.slots = merged
}
