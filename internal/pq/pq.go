// Package pq is the scheduling pipeline's one binary heap: the offline
// mapper's ready list and completion queue, the online driver's event queue.
// Items live by value in a slice, so a push or a pop boxes nothing
// (container/heap moves every element through an interface).
package pq

// Heap is a min-heap under Less. It sifts exactly as container/heap does —
// the same comparisons and swaps in the same order — so items that compare
// equal pop in the order container/heap pops them. The zero value with Less
// set is an empty heap; Items may be preallocated, in heap order if not empty.
type Heap[T any] struct {
	Items []T
	Less  func(a, b *T) bool
}

// Len returns the number of queued items; Items[0] is the next to pop.
func (h *Heap[T]) Len() int { return len(h.Items) }

// Push adds x.
func (h *Heap[T]) Push(x T) {
	h.Items = append(h.Items, x)
	q := h.Items
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !h.Less(&q[j], &q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

// Pop removes and returns the least item.
func (h *Heap[T]) Pop() T {
	q := h.Items
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.Less(&q[r], &q[j]) {
			j = r
		}
		if !h.Less(&q[j], &q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	h.Items = q[:n]
	return q[n]
}
