package sssp

import (
	"math"
	"reflect"
	"testing"

	"incgraph/internal/graph"
)

// fuzzWeights is the boundary table FuzzUpdateWeights draws weights
// from: the accepted domain's edges, the signed integer limits of every
// width, and the distance sentinel, so the fuzzer reaches the overflow
// cases that small random weights never do.
var fuzzWeights = []int64{
	0, 1, 2,
	graph.MaxEdgeWeight - 1, graph.MaxEdgeWeight, graph.MaxEdgeWeight + 1,
	math.MaxInt8, math.MaxInt16, math.MaxInt32, math.MaxInt64,
	-1, math.MinInt8, math.MinInt16, math.MinInt32, math.MinInt64,
	Infinity - 1, Infinity, Infinity + 1,
}

// FuzzUpdateWeights decodes bytes into a short update stream over a
// 6-node graph and applies every batch that Batch.Validate accepts. After
// each batch the incremental distances must equal Dijkstra's, and each
// must be a finite non-negative value or exactly Infinity: a weight the
// engine cannot handle has to be rejected at the gate, never silently
// mis-computed.
//
// Encoding: byte 0 picks directedness; then every 3 bytes are one update
// (op byte: bit 0 delete, bits 1.. the tail node; head node; weight byte,
// indexing fuzzWeights or, past its end, a small literal weight). A batch
// closes after every 4 updates.
func FuzzUpdateWeights(f *testing.F) {
	f.Add([]byte{0, 2, 2, 9})               // + (1,2) MaxInt64
	f.Add([]byte{1, 4, 3, 4, 2, 4, 5})      // + (2,3) MaxEdgeWeight, + (1,4) MaxEdgeWeight+1
	f.Add([]byte{0, 0, 5, 40, 1, 5, 0})     // insert then delete (0,5)
	f.Add([]byte{1, 6, 1, 14, 8, 2, 3, 10}) // MinInt64, then a mixed tail
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 3*32+1 {
			return
		}
		const n = 6
		g := graph.New(n, data[0]&1 == 1)
		g.InsertEdge(0, 1, 1)
		g.InsertEdge(1, 2, 1)
		inc := NewInc(g, 0)
		var b graph.Batch
		flush := func() {
			if len(b) == 0 || b.Validate(n) != nil {
				b = b[:0]
				return
			}
			inc.Apply(b)
			b = b[:0]
			want := Dijkstra(inc.Graph(), 0)
			if !reflect.DeepEqual(inc.Dist(), want) {
				t.Fatalf("incremental %v, Dijkstra %v", inc.Dist(), want)
			}
			for v, d := range want {
				if d < 0 || d > Infinity {
					t.Fatalf("dist[%d] = %d outside [0, Infinity]", v, d)
				}
			}
		}
		for p := data[1:]; len(p) >= 3; p = p[3:] {
			u := graph.Update{From: graph.NodeID(int(p[0]>>1) % n), To: graph.NodeID(int(p[1]) % n)}
			if p[0]&1 == 1 {
				u.Kind = graph.DeleteEdge
			}
			if i := int(p[2]); i < len(fuzzWeights) {
				u.W = fuzzWeights[i]
			} else {
				u.W = int64(i - len(fuzzWeights))
			}
			b = append(b, u)
			if len(b) == 4 {
				flush()
			}
		}
		flush()
	})
}
