package main

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/shard"
)

// Phases that stop a prefetching generator early must still send the
// stream in the order the generator applied it to its graph.
func TestPrefetchKeepsStreamOrder(t *testing.T) {
	base := gen.Synthetic(3, 300, 6, true)
	s := newStreamGen(base, 5)
	var sent []graph.Batch
	for _, take := range []int{3, 0, 1, 4, 2} {
		stop := make(chan struct{})
		next := s.prefetch(7, stop)
		for i := 0; i < take; i++ {
			sent = append(sent, (<-next).B)
		}
		close(stop)
		s.drain(next)
	}
	for len(s.pending) > 0 {
		sent = append(sent, s.body(7).B)
	}
	ref := newStreamGen(base, 5)
	for i, b := range sent {
		if want := ref.next(7); !reflect.DeepEqual(b, want) {
			t.Fatalf("batch %d out of stream order", i)
		}
	}
	if !reflect.DeepEqual(s.g, ref.g) {
		t.Fatal("the generator's graph is not the graph the sent stream builds")
	}
}

func TestRoutedFailure(t *testing.T) {
	b := graph.Batch{
		{Kind: graph.InsertEdge, From: 1, To: 2, W: 3},
		{Kind: graph.InsertEdge, From: 2, To: 5, W: 1},
		{Kind: graph.DeleteEdge, From: 7, To: 1, W: 4},
		{Kind: graph.InsertEdge, From: 4, To: 9, W: 2},
	}
	slices := shard.SplitBatch(routedPart, true, b)
	if len(slices[0]) == 0 || len(slices[1]) == 0 {
		t.Fatal("test batch must touch both shards")
	}
	result := func(status0, status1 string) []byte {
		body, _ := json.Marshal(shard.RouterUpdateResult{PerShard: []shard.PerShard{
			{Shard: 0, Status: status0}, {Shard: 1, Status: status1},
		}})
		return body
	}
	for _, tc := range []struct {
		name    string
		code    int
		body    []byte
		acked   []graph.Batch
		unknown bool
	}{
		{"one shard applied, one shed", http.StatusServiceUnavailable, result("applied", "shed"), []graph.Batch{slices[0]}, false},
		{"one shard accepted, one failed", http.StatusBadGateway, result("error", "accepted"), []graph.Batch{slices[1]}, true},
		{"every shard shed", http.StatusServiceUnavailable, result("shed", "shed"), nil, false},
		{"refused before fan-out", http.StatusServiceUnavailable, []byte(`{"error":"circuit breaker is open"}`), nil, false},
		{"failed before fan-out", http.StatusBadGateway, []byte(`{"error":"boom"}`), nil, true},
	} {
		var w writerLog
		w.routedFailure(tc.code, tc.body, b)
		if !reflect.DeepEqual(w.acked, tc.acked) || w.unknown != tc.unknown || w.partial != len(tc.acked) {
			t.Errorf("%s: acked %v, unknown %v, partial %d; want %v, %v, %d", tc.name, w.acked, w.unknown, w.partial, tc.acked, tc.unknown, len(tc.acked))
		}
	}
}
