package graph

import (
	"math/rand"
	"sort"
	"testing"
)

func TestSnapshotBasic(t *testing.T) {
	g := New(4, false)
	g.InsertEdge(0, 2, 1)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(1, 2, 1)
	c := buildCSR(g, false)
	if c.numNodes() != 4 {
		t.Fatalf("numNodes = %d", c.numNodes())
	}
	if got := c.neighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("neighbors(0) = %v, want sorted [1 2]", got)
	}
	if got := c.neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("neighbors(1) = %v, want sorted [0 2]", got)
	}
	if got := c.neighbors(3); len(got) != 0 {
		t.Fatalf("neighbors(3) = %v, want empty", got)
	}
}

func TestSnapshotMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(30, true)
	g.Apply(randomBatch(rng, 30, 400))
	c := buildCSR(g, false)
	for u := 0; u < 30; u++ {
		want := make([]NodeID, 0)
		for _, e := range g.Out(NodeID(u)) {
			want = append(want, e.To)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := c.neighbors(NodeID(u))
		if len(got) != len(want) {
			t.Fatalf("node %d: degree %d vs %d", u, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node %d: neighbors %v vs %v", u, got, want)
			}
		}
	}
}
