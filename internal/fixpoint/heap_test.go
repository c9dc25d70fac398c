package fixpoint

import (
	"math/rand"
	"sort"
	"testing"

	"incgraph/internal/pq"
)

func TestIndexedHeapOrdering(t *testing.T) {
	keys := []int64{5, 3, 8, 1, 9, 2, 7}
	h := pq.New(len(keys), func(a, b Var) bool { return keys[a] < keys[b] })
	for i := range keys {
		h.AddOrAdjust(Var(i))
	}
	var got []int64
	for {
		x, ok := h.Pop()
		if !ok {
			break
		}
		got = append(got, keys[x])
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("pop order not sorted: %v", got)
	}
	if len(got) != len(keys) {
		t.Fatalf("popped %d items, want %d", len(got), len(keys))
	}
}

func TestIndexedHeapAdjust(t *testing.T) {
	keys := []int64{10, 20, 30}
	h := pq.New(3, func(a, b Var) bool { return keys[a] < keys[b] })
	for i := range keys {
		h.AddOrAdjust(Var(i))
	}
	keys[2] = 1 // decrease-key
	h.AddOrAdjust(2)
	if x, _ := h.Pop(); x != 2 {
		t.Fatalf("decrease-key not honored, popped %d", x)
	}
	keys[0] = 99 // increase-key
	h.AddOrAdjust(0)
	if x, _ := h.Pop(); x != 1 {
		t.Fatalf("increase-key not honored, popped %d", x)
	}
	if !h.Contains(0) || h.Contains(1) {
		t.Fatal("Contains wrong")
	}
}

func TestIndexedHeapDuplicatesIgnored(t *testing.T) {
	keys := []int64{4, 2}
	h := pq.New(2, func(a, b Var) bool { return keys[a] < keys[b] })
	h.AddOrAdjust(0)
	h.AddOrAdjust(0)
	h.AddOrAdjust(1)
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2", h.Len())
	}
}

func TestIndexedHeapRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 200
	keys := make([]int64, n)
	h := pq.New(n, func(a, b Var) bool { return keys[a] < keys[b] })
	live := map[Var]bool{}
	for op := 0; op < 5000; op++ {
		x := Var(rng.Intn(n))
		switch rng.Intn(3) {
		case 0, 1:
			keys[x] = int64(rng.Intn(1000))
			h.AddOrAdjust(x)
			live[x] = true
		case 2:
			if y, ok := h.Pop(); ok {
				// y must be minimal among live items.
				for z := range live {
					if z != y && keys[z] < keys[y] {
						t.Fatalf("popped %d (key %d) but %d has key %d", y, keys[y], z, keys[z])
					}
				}
				delete(live, y)
			}
		}
	}
}

func TestFifoOrder(t *testing.T) {
	f := newFifo(5)
	f.AddOrAdjust(3)
	f.AddOrAdjust(1)
	f.AddOrAdjust(3) // duplicate ignored
	f.AddOrAdjust(4)
	if f.Len() != 3 {
		t.Fatalf("Len = %d", f.Len())
	}
	want := []Var{3, 1, 4}
	for _, w := range want {
		x, ok := f.Pop()
		if !ok || x != w {
			t.Fatalf("popped %d, want %d", x, w)
		}
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
	// Re-adding after pop works.
	f.AddOrAdjust(1)
	if x, ok := f.Pop(); !ok || x != 1 {
		t.Fatal("re-add after pop failed")
	}
}
