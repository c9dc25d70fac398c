package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"

	"incgraph/internal/bc"
	"incgraph/internal/cc"
	"incgraph/internal/dfs"
	"incgraph/internal/graph"
	"incgraph/internal/lcc"
	"incgraph/internal/serve"
	"incgraph/internal/sim"
	"incgraph/internal/sssp"
)

// newServeable builds the maintainer incgraphd hosts for algo: a batch
// run over g behind the class's serve adapter.
func newServeable(algo string, g, pattern *graph.Graph) (serve.Serveable, error) {
	switch algo {
	case "sssp":
		return serve.SSSP(sssp.NewInc(g, ssspSource), ssspSource), nil
	case "cc":
		return serve.CC(cc.NewInc(g)), nil
	case "sim":
		return serve.Sim(sim.NewInc(g, pattern)), nil
	case "dfs":
		return serve.DFS(dfs.NewInc(g)), nil
	case "lcc":
		return serve.LCC(lcc.NewInc(g)), nil
	case "bc":
		return serve.BC(bc.NewInc(g)), nil
	}
	return nil, fmt.Errorf("unknown class %q", algo)
}

// mirrorGraph is the benchmark's own copy of what the server should
// hold: the base graph with every acknowledged batch applied in ack
// order, with the server's semantics for duplicate inserts and absent
// deletes (counted no-ops).
func mirrorGraph(base *graph.Graph, acked []graph.Batch) *graph.Graph {
	g := base.Clone()
	for _, b := range acked {
		g.ApplyCounted(b)
	}
	return g
}

// checkFinal compares the served answer of every hosted class with a
// batch recompute over the mirror graph, using the equality the repo's
// differential tests use (reflect.DeepEqual of the published view
// against a freshly built maintainer's view; for the router, the
// assembled vectors against the single-process Dijkstra and CC). For one
// incgraphd it also checks that every view's epoch equals the number of
// unit updates acknowledged.
func checkFinal(c *http.Client, t target, mirror, pattern *graph.Graph, ackedUpdates int) error {
	for _, algo := range t.Algos {
		code, body, err := do(c, http.MethodGet, t.Base+"/query/"+algo, nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("final query %s: status %d err %v", algo, code, err)
		}
		var v struct {
			Epoch      uint64          `json:"epoch"`
			Degraded   bool            `json:"degraded"`
			Consistent *bool           `json:"consistent"`
			Data       json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("final query %s: %w", algo, err)
		}
		if v.Degraded || (v.Consistent != nil && !*v.Consistent) {
			return fmt.Errorf("final query %s: degraded or inconsistent answer", algo)
		}
		if t.Routed {
			if err := checkRouted(algo, v.Data, mirror); err != nil {
				return err
			}
			continue
		}
		if v.Epoch != uint64(ackedUpdates) {
			return fmt.Errorf("%s: view epoch %d, but %d updates were acknowledged", algo, v.Epoch, ackedUpdates)
		}
		m, err := newServeable(algo, mirror.Clone(), pattern)
		if err != nil {
			return err
		}
		want := m.Snapshot()
		got := reflect.New(reflect.TypeOf(want))
		if err := json.Unmarshal(v.Data, got.Interface()); err != nil {
			return fmt.Errorf("final query %s: decode view: %w", algo, err)
		}
		if !reflect.DeepEqual(got.Elem().Interface(), want) {
			return fmt.Errorf("%s: served answer differs from the batch recompute", algo)
		}
	}
	return nil
}

// checkRouted compares one router answer with the single-process
// recompute.
func checkRouted(algo string, data json.RawMessage, mirror *graph.Graph) error {
	var d struct {
		Dist   []int64 `json:"dist"`
		Labels []int64 `json:"labels"`
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("final query %s: %w", algo, err)
	}
	var got, want []int64
	switch algo {
	case "sssp":
		got, want = d.Dist, sssp.Dijkstra(mirror, ssspSource)
	case "cc":
		got, want = d.Labels, cc.CCfp(mirror)
	default:
		return fmt.Errorf("router does not serve %q", algo)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("routed %s: assembled answer differs from the single-process recompute", algo)
	}
	return nil
}
