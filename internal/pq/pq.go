// Package pq provides an indexed binary min-heap over dense int32 handles
// with O(log n) add-or-adjust (decrease/increase-key), the priority queue
// behind Dijkstra-style algorithms and the fixpoint engine's worklists
// throughout this repository.
package pq

// Heap is an indexed min-heap over handles 0..n-1 ordered by an external
// comparator. The handle type is any int32-based id (node ids, engine
// variables). The zero value is not usable; call New.
type Heap[T ~int32] struct {
	less  func(a, b T) bool
	items []T
	pos   []int32 // pos[x] = index of x in items, -1 if absent
}

// New returns a heap over handles 0..n-1 ordered by less.
func New[T ~int32](n int, less func(a, b T) bool) *Heap[T] {
	h := &Heap[T]{less: less, pos: make([]int32, n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len returns the number of queued handles.
func (h *Heap[T]) Len() int { return len(h.items) }

// Contains reports whether x is queued.
func (h *Heap[T]) Contains(x T) bool { return h.pos[x] >= 0 }

// Grow extends the handle space to n.
func (h *Heap[T]) Grow(n int) {
	for len(h.pos) < n {
		h.pos = append(h.pos, -1)
	}
}

// AddOrAdjust inserts x, or restores heap order after x's key changed —
// the paper's que.addOrAdjust.
func (h *Heap[T]) AddOrAdjust(x T) {
	if h.pos[x] < 0 {
		h.pos[x] = int32(len(h.items))
		h.items = append(h.items, x)
		h.up(int(h.pos[x]))
		return
	}
	i := int(h.pos[x])
	if !h.up(i) {
		h.down(i)
	}
}

// Pop removes and returns the minimum handle.
func (h *Heap[T]) Pop() (T, bool) {
	if len(h.items) == 0 {
		return 0, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.pos[h.items[0]] = 0
	h.items = h.items[:last]
	h.pos[top] = -1
	if last > 0 {
		h.down(0)
	}
	return top, true
}

func (h *Heap[T]) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i]] = int32(i)
	h.pos[h.items[j]] = int32(j)
}

func (h *Heap[T]) up(i int) bool {
	moved := false
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.items[i], h.items[p]) {
			break
		}
		h.swap(i, p)
		i = p
		moved = true
	}
	return moved
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(h.items[l], h.items[m]) {
			m = l
		}
		if r < n && h.less(h.items[r], h.items[m]) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}
