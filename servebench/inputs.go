package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// workload is one traffic mix against one serving topology. Sizes and
// rates are fixed here so that every run of a workload offers the same
// load; only the seed changes the inputs.
type workload struct {
	Name     string
	Nodes    int
	Deg      int
	Directed bool
	Algos    []string
	Routed   bool // incrouter -spawn with two durable shards instead of one incgraphd

	// Writer: open loop (BatchesPerSec > 0) sends BatchSize-update
	// batches on a fixed schedule regardless of acks; closed loop sends
	// the next batch when the previous one is acknowledged. A closed-loop
	// BatchSize of 0 means BatchFrac of the base graph's edges.
	BatchSize     int
	BatchFrac     float64
	BatchesPerSec float64

	// Reader: the class rotation it queries. Beside an open-loop writer
	// it sends QueriesPerSec queries a second on a fixed schedule. With
	// a closed-loop writer it reads alone, in a closed loop, after each
	// writer window, for ReadShare of the time, so every workload
	// reports query latency: the full-view encode of its own classes.
	ReadCycle     []string
	QueriesPerSec float64
	ReadShare     float64
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json records
// why each exists.
//
// routed's 32 batches/s keep the writer well below saturation and keep
// start-up to the end of its phases under incgraphd's 1024-request
// checkpoint cadence (README.md, "Checkpoints"). Its reader sends 20 CC
// queries a second, so the cores are not saturated by design. It sends
// no SSSP query: a routed SSSP answer is an exchange of many rounds
// between the shards, and took 450 ms on a quiet machine but 0.8-4 s
// while the hypervisor stole 4-25% of the CPU, so no latency mixing it
// in held still from run to run. The traced run measures the exchange
// on SSSP queries sent after its phase.
var workloads = map[string]workload{
	"bulk": {
		Name: "bulk", Nodes: 80000, Deg: 16, Directed: true,
		Algos:     []string{"sssp", "cc", "sim"},
		BatchFrac: 0.01,
		ReadCycle: []string{"sssp", "cc", "sim"}, ReadShare: 0.25,
	},
	"undirected": {
		Name: "undirected", Nodes: 24000, Deg: 16, Directed: false,
		Algos:     []string{"dfs", "lcc", "bc"},
		BatchSize: 500,
		ReadCycle: []string{"dfs", "lcc", "bc"}, ReadShare: 0.25,
	},
	"routed": {
		Name: "routed", Nodes: 20000, Deg: 16, Directed: true,
		Algos: []string{"sssp", "cc"}, Routed: true,
		BatchSize: 10, BatchesPerSec: 32,
		ReadCycle: []string{"cc"}, QueriesPerSec: 20,
	},
}

// ssspSource is the SSSP source every workload queries from.
const ssspSource = 0

// inputs are the seeded files and structures one run uses.
type inputs struct {
	GraphPath   string
	PatternPath string
	Base        *graph.Graph // as written to GraphPath
	Pattern     *graph.Graph // nil unless sim is hosted
	BatchSize   int
}

// makeInputs generates the workload's graph (and Sim pattern) from seed
// and writes them into dir in the format incgraphd reads with -graph and
// -pattern.
func makeInputs(w workload, seed int64, dir string) (*inputs, error) {
	in := &inputs{
		GraphPath:   filepath.Join(dir, "graph.txt"),
		PatternPath: filepath.Join(dir, "pattern.txt"),
	}
	in.Base = gen.Synthetic(seed, w.Nodes, w.Deg, w.Directed)
	if err := writeGraph(in.GraphPath, in.Base); err != nil {
		return nil, err
	}
	if indexOf(w.Algos, "sim") >= 0 {
		in.Pattern = simPattern(seed)
		if err := writeGraph(in.PatternPath, in.Pattern); err != nil {
			return nil, err
		}
	}
	in.BatchSize = w.BatchSize
	if in.BatchSize == 0 {
		in.BatchSize = int(w.BatchFrac * float64(in.Base.NumEdges()))
	}
	return in, nil
}

// simPattern is a pattern of the paper's size |Q| = (4, 6): a directed
// 4-cycle with both chords, its four nodes labeled with distinct labels
// drawn from the seed. The shape is fixed because a random shape makes
// the match count, and with it the Sim view's size and cost, swing by
// half between seeds (22k to 37k matches at 80k nodes), so the spread
// across seeds would measure the pattern rather than the server.
func simPattern(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed + 2))
	q := graph.New(4, true)
	labels := rng.Perm(gen.Alphabet)
	for v := 0; v < 4; v++ {
		q.SetLabel(graph.NodeID(v), graph.Label(labels[v]))
	}
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {1, 3}} {
		q.InsertEdge(e[0], e[1], 1)
	}
	return q
}

func writeGraph(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := g.WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// streamGen produces the update stream against a private mirror of the
// graph, so every deletion names an edge that is live at that point of
// the stream and every insertion an absent one. Half the updates insert,
// half delete, as in the paper's random workloads.
type streamGen struct {
	// pending holds batches already applied to g but not yet sent: a
	// closed-loop phase that ends leaves the prefetched ones here, and
	// the next phase sends them first, so g stays what the server holds.
	pending []batchBody

	g     *graph.Graph
	rng   *rand.Rand
	live  []uint64       // packed live edges (u<v for undirected)
	where map[uint64]int // packed edge -> index in live
}

func pack(u, v graph.NodeID) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

func newStreamGen(base *graph.Graph, seed int64) *streamGen {
	s := &streamGen{g: base.Clone(), rng: rand.New(rand.NewSource(seed + 7)), where: make(map[uint64]int)}
	s.g.Edges(func(u, v graph.NodeID, _ int64) { s.add(pack(u, v)) })
	return s
}

func (s *streamGen) add(k uint64) {
	s.where[k] = len(s.live)
	s.live = append(s.live, k)
}

func (s *streamGen) remove(k uint64) {
	i := s.where[k]
	last := s.live[len(s.live)-1]
	s.live[i] = last
	s.where[last] = i
	s.live = s.live[:len(s.live)-1]
	delete(s.where, k)
}

// next returns the next batch of n updates, applied to the mirror.
func (s *streamGen) next(n int) graph.Batch {
	b := make(graph.Batch, 0, n)
	nodes := s.g.NumNodes()
	for len(b) < n {
		if s.rng.Intn(2) == 0 && len(s.live) > 0 {
			k := s.live[s.rng.Intn(len(s.live))]
			u, v := graph.NodeID(k>>32), graph.NodeID(uint32(k))
			w := s.g.Weight(u, v)
			s.g.DeleteEdge(u, v)
			s.remove(k)
			b = append(b, graph.Update{Kind: graph.DeleteEdge, From: u, To: v, W: w})
			continue
		}
		u, v := graph.NodeID(s.rng.Intn(nodes)), graph.NodeID(s.rng.Intn(nodes))
		if u == v || s.g.HasEdge(u, v) {
			continue
		}
		w := int64(s.rng.Intn(gen.MaxWeight)) + 1
		s.g.InsertEdge(u, v, w)
		if !s.g.Directed() && v < u {
			s.add(pack(v, u))
		} else {
			s.add(pack(u, v))
		}
		b = append(b, graph.Update{Kind: graph.InsertEdge, From: u, To: v, W: w})
	}
	return b
}

// batchBody is one update batch with its request body.
type batchBody struct {
	B    graph.Batch
	Body []byte
}

func encodeBatch(b graph.Batch) batchBody {
	var buf bytes.Buffer
	graph.WriteBatch(&buf, b) // a bytes.Buffer write cannot fail
	return batchBody{B: b, Body: buf.Bytes()}
}

// body returns the next batch to send: a pending one, or a new one of n
// updates.
func (s *streamGen) body(n int) batchBody {
	if len(s.pending) > 0 {
		bb := s.pending[0]
		s.pending = s.pending[1:]
		return bb
	}
	return encodeBatch(s.next(n))
}

// prefetch runs the generator one batch ahead of a closed-loop writer,
// so generating and encoding batch k+1 overlaps the wait for batch k.
// When stop closes, the generator stops; drain must then be called
// before the generator is used again.
func (s *streamGen) prefetch(n int, stop <-chan struct{}) <-chan batchBody {
	out := make(chan batchBody, 1)
	go func() {
		defer close(out)
		for {
			bb := s.body(n)
			select {
			case out <- bb:
			case <-stop:
				s.pending = append([]batchBody{bb}, s.pending...)
				return
			}
		}
	}()
	return out
}

// drain waits for a stopped prefetch to end and keeps the batches it
// generated but did not hand over, in stream order, for the next phase.
func (s *streamGen) drain(out <-chan batchBody) {
	var unsent []batchBody
	for bb := range out {
		unsent = append(unsent, bb)
	}
	// The channel is closed, so the generator has returned: unsent came
	// out of it before the batch it kept in pending.
	s.pending = append(unsent, s.pending...)
}

// schedule pre-generates an open-loop writer's whole stream: count
// batches, due every interval from the start of the phase.
func (s *streamGen) schedule(count, size int) []batchBody {
	out := make([]batchBody, count)
	for i := range out {
		out[i] = s.body(size)
	}
	return out
}
