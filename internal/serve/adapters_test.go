package serve

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"incgraph/internal/graph"
	"incgraph/internal/sim"
)

// simViewRef is the Match-built reference simView must reproduce.
func simViewRef(r sim.Relation) SimView {
	n := len(r.Bits) / r.NQ
	v := SimView{NQ: r.NQ, Count: r.Count(), Matches: make([][]graph.NodeID, r.NQ)}
	for u := 0; u < r.NQ; u++ {
		v.Matches[u] = []graph.NodeID{}
		for d := 0; d < n; d++ {
			if r.Match(graph.NodeID(d), graph.NodeID(u)) {
				v.Matches[u] = append(v.Matches[u], graph.NodeID(d))
			}
		}
	}
	return v
}

func TestSimViewMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func(n, nq int, density float64) sim.Relation {
		r := sim.NewRelation(n, nq)
		for i := range r.Bits {
			r.Bits[i] = rng.Float64() < density
		}
		return r
	}
	// emptyAndFull leaves pattern node 0 unmatched and matches pattern
	// node 1 everywhere.
	emptyAndFull := random(40, 3, 0.5)
	for d := 0; d < 40; d++ {
		emptyAndFull.Bits[d*3] = false
		emptyAndFull.Bits[d*3+1] = true
	}
	cases := []struct {
		name string
		r    sim.Relation
	}{
		{"no data nodes", sim.NewRelation(0, 4)},
		{"all false", sim.NewRelation(25, 4)},
		{"all true", random(25, 4, 1)},
		{"one pattern node", random(30, 1, 0.5)},
		{"sparse", random(200, 6, 0.05)},
		{"dense", random(200, 6, 0.9)},
		{"empty row and full row", emptyAndFull},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := simView(c.r), simViewRef(c.r)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("simView = %+v, want %+v", got, want)
			}
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			if string(gj) != string(wj) {
				t.Fatalf("encodings differ:\n got %s\nwant %s", gj, wj)
			}
		})
	}
}
