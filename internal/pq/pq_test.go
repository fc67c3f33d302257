package pq

import (
	"container/heap"
	"math/rand"
	"testing"
)

// item ties heavily on key; seq tells equal keys apart in the pop sequence.
type item struct{ key, seq int }

func lessItem(a, b *item) bool { return a.key < b.key }

// stdHeap is container/heap over the same Less.
type stdHeap []item

func (h stdHeap) Len() int           { return len(h) }
func (h stdHeap) Less(i, j int) bool { return lessItem(&h[i], &h[j]) }
func (h stdHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *stdHeap) Push(x any)        { *h = append(*h, x.(item)) }
func (h *stdHeap) Pop() any {
	old := *h
	n := len(old) - 1
	x := old[n]
	*h = old[:n]
	return x
}

// "Sifts exactly as container/heap": over seeded interleavings of pushes and
// pops with keys drawn from four values, Heap pops the items container/heap
// pops, in the same order — equal keys included, which a heap leaves in no
// order a caller could otherwise rely on.
func TestHeapPopsAsContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := Heap[item]{Less: lessItem}
		var std stdHeap
		pop := func(step int) {
			got, want := h.Pop(), heap.Pop(&std).(item)
			if got != want {
				t.Fatalf("seed %d step %d: popped %+v, container/heap pops %+v", seed, step, got, want)
			}
		}
		steps := 1 + rng.Intn(400)
		pushBias := 0.3 + 0.6*rng.Float64()
		for step := 0; step < steps; step++ {
			if h.Len() != std.Len() {
				t.Fatalf("seed %d step %d: Len %d, container/heap holds %d", seed, step, h.Len(), std.Len())
			}
			if h.Len() == 0 || rng.Float64() < pushBias {
				it := item{key: rng.Intn(4), seq: step}
				h.Push(it)
				heap.Push(&std, it)
			} else {
				pop(step)
			}
		}
		for step := steps; h.Len() > 0; step++ {
			pop(step)
		}
		if std.Len() != 0 {
			t.Fatalf("seed %d: drained with %d items left in container/heap", seed, std.Len())
		}
	}
}
