package incgraph

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"incgraph/internal/bc"
	"incgraph/internal/cc"
	"incgraph/internal/dfs"
	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
	"incgraph/internal/lcc"
	"incgraph/internal/sim"
	"incgraph/internal/sssp"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/flat_ledgers.golden.json")

const ledgerGoldenPath = "testdata/flat_ledgers.golden.json"

// ledgerGolden is one batch's Portable WorkLedgers for the SSSP and CC
// maintainers of TestFlatDifferentialSixClass.
type ledgerGolden struct {
	Seed  int64               `json:"seed"`
	Chunk int                 `json:"chunk"`
	SSSP  fixpoint.WorkLedger `json:"sssp"`
	CC    fixpoint.WorkLedger `json:"cc"`
}

// flatStream builds a random update stream over n nodes: a third
// deletions, the rest weighted insertions (re-inserting an existing edge
// replaces its weight, which exercises the overlay's resurrect path).
func flatStream(rng *rand.Rand, n, length int) graph.Batch {
	b := make(graph.Batch, 0, length)
	for len(b) < length {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if rng.Intn(3) == 0 {
			b = append(b, graph.Update{Kind: graph.DeleteEdge, From: u, To: v})
		} else {
			b = append(b, graph.Update{Kind: graph.InsertEdge, From: u, To: v, W: int64(rng.Intn(9) + 1)})
		}
	}
	return b
}

// TestFlatDifferentialSixClass is the whole-fleet oracle test of the
// flat (CSR + overlay) execution core, on fixed seeds. After every batch
// of a random update stream, each class's answer must equal a batch
// recompute on the maintained graph: Dijkstra, union-find, the lowpoint
// DFS, the canonical DFS tree, LCC and Simfp. The per-batch Portable
// WorkLedgers of SSSP and CC must further match
// testdata/flat_ledgers.golden.json bit for bit, which pins the amount
// of incremental work, not just the answers. (Portable zeroes Rounds,
// which depend on the scan order of the adjacency view.) Run with
// -update to rewrite the goldens after a deliberate change to the work
// the maintainers do.
func TestFlatDifferentialSixClass(t *testing.T) {
	const nodes, chunks, chunkLen = 160, 6, 40
	var got []ledgerGolden
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gd := PowerLawGraph(seed+1, nodes, 4, true)
		gu := PowerLawGraph(seed+2, nodes, 4, false)
		pattern := RandomPattern(seed+3, 4, 5, 3)

		sInc := sssp.NewInc(gd.Clone(), 0)
		cInc := cc.NewInc(gu.Clone())
		bInc := bc.NewInc(gu.Clone())
		simEng := sim.NewIncEngine(gd.Clone(), pattern)
		dfsInc := dfs.NewInc(gu.Clone())
		lccInc := lcc.NewInc(gu.Clone())

		// An aggressive threshold on SSSP and CC forces several
		// compactions mid-stream, so the test covers overlay reads,
		// compacted reads, and the transition between them; BC and DFS
		// keep the default threshold.
		sInc.Flat().SetCompactThreshold(0.05)
		cInc.Flat().SetCompactThreshold(0.05)

		for i := 0; i < chunks; i++ {
			dStream := flatStream(rng, nodes, chunkLen)
			uStream := flatStream(rng, nodes, chunkLen)

			sInc.Apply(dStream)
			if !reflect.DeepEqual(sInc.Dist(), sssp.Dijkstra(sInc.Graph(), 0)) {
				t.Fatalf("seed %d chunk %d: sssp distances diverged from Dijkstra", seed, i)
			}

			cInc.Apply(uStream)
			if !reflect.DeepEqual(cInc.Labels(), cc.UnionFind(cInc.Graph())) {
				t.Fatalf("seed %d chunk %d: cc labels diverged from union-find", seed, i)
			}
			got = append(got, ledgerGolden{
				Seed: seed, Chunk: i,
				SSSP: sInc.Stats().Ledger.Portable(),
				CC:   cInc.Stats().Ledger.Portable(),
			})

			bInc.Apply(uStream)
			if !bInc.Result().Equivalent(bc.Run(bInc.Graph())) {
				t.Fatalf("seed %d chunk %d: bc result diverged from recompute", seed, i)
			}

			simEng.Apply(dStream)
			if ref := sim.Simfp(simEng.Graph(), pattern); !simEng.Relation().Equal(ref) {
				t.Fatalf("seed %d chunk %d: sim relation diverged from recompute", seed, i)
			}

			dfsInc.Apply(uStream)
			if !dfsInc.Tree().IsValid(dfsInc.Graph()) {
				t.Fatalf("seed %d chunk %d: dfs tree invalid after repair", seed, i)
			}
			// The canonical traversal is a unique function of the graph,
			// so the repaired tree must be the one a batch run builds.
			if !dfsInc.Tree().Equal(dfs.Run(dfsInc.Graph())) {
				t.Fatalf("seed %d chunk %d: dfs tree diverged from canonical recompute", seed, i)
			}

			lccInc.Apply(uStream)
			if ref := lcc.Run(lccInc.Graph()); !lccInc.Result().Equal(ref) {
				t.Fatalf("seed %d chunk %d: lcc result diverged from recompute", seed, i)
			}
		}
		// The aggressive threshold must actually have compacted.
		if sInc.Flat().Compactions() == 0 {
			t.Fatalf("seed %d: sssp flat view never compacted at threshold 0.05", seed)
		}
	}

	if *updateGoldens {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(ledgerGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(ledgerGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want []ledgerGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d ledger entries, golden has %d", len(got), len(want))
	}
	for k := range got {
		if got[k] != want[k] {
			t.Errorf("seed %d chunk %d: ledgers differ from golden:\ngot  %+v\nwant %+v",
				got[k].Seed, got[k].Chunk, got[k], want[k])
		}
	}
}
