package sssp

import (
	"fmt"
	"time"

	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
	"incgraph/internal/pq"
)

// Inc is the deduced incremental algorithm IncSSSP of Fig. 5, sharing
// Dijkstra's data structures verbatim: the distance array and an indexed
// priority queue. IncSSSP is *deducible* — it needs no timestamps, because
// the order <_C is the distance order already present in the fixpoint
// (with positive weights, every anchor's distance is strictly smaller than
// its dependent's).
//
// Apply = Stage (materialize G ⊕ ΔG) + Repair:
//
//  1. the initial scope function h revises potentially infeasible
//     distances in ascending old-distance order, substituting ∞ for
//     inputs determined later (Fig. 4), seeded by the heads of deleted
//     tight edges;
//  2. the resumed step function is Dijkstra's own loop (lines 4-10 of
//     Fig. 1), seeded with the revised nodes and the tails of inserted
//     edges.
//
// An Inc is not goroutine-safe: it (and the graph it owns) must be
// driven by a single writer goroutine making every call, reads included —
// accessors alias internal state that Apply mutates. Concurrent serving
// goes through internal/serve, which gives each maintainer one apply
// loop and publishes immutable snapshots to readers.
type Inc struct {
	g    *graph.Graph
	flat *graph.Flat // CSR+overlay adjacency, the hot loops' only source
	src  graph.NodeID

	dist []int64
	wq   *pq.Heap[graph.NodeID] // step-function queue, keyed by current distance

	hq      *pq.Heap[graph.NodeID] // h's queue, keyed by old distance
	hkey    []int64
	oldVal  []int64        // pre-revision distances of this round's revised nodes
	mark    []int64        // epoch marks: revised this round
	affMark []int64        // epoch marks: AFF membership (work ledger)
	chMark  []int64        // epoch marks: written this repair (work ledger)
	chOld   []int64        // repair-start distances of written nodes (work ledger)
	chList  []graph.NodeID // written nodes, swept at end of Repair
	epoch   int64

	pending graph.Batch
	stats   fixpoint.Stats
	tracer  fixpoint.Tracer

	// Parallel resume mode (see parallel.go). Zero-valued for sequential
	// maintainers, so the default path allocates nothing extra.
	par        fixpoint.RoundDriver
	ws         []ssspWorker
	frontier   []graph.NodeID
	parRelaxFn func(int) int64
}

// NewInc runs Dijkstra and returns the incremental algorithm positioned
// at its fixpoint.
func NewInc(g *graph.Graph, src graph.NodeID) *Inc {
	i := &Inc{g: g, flat: graph.NewFlat(g), src: src, dist: Dijkstra(g, src)}
	n := g.NumNodes()
	i.wq = pq.New(n, func(a, b graph.NodeID) bool { return i.dist[a] < i.dist[b] })
	i.hq = pq.New(n, func(a, b graph.NodeID) bool { return i.hkey[a] < i.hkey[b] })
	i.hkey = make([]int64, n)
	i.oldVal = make([]int64, n)
	i.mark = make([]int64, n)
	i.affMark = make([]int64, n)
	i.chMark = make([]int64, n)
	i.chOld = make([]int64, n)
	i.chList = make([]graph.NodeID, 0, n)
	return i
}

// Graph returns the maintained graph.
func (i *Inc) Graph() *graph.Graph { return i.g }

// Flat returns the maintainer's flat adjacency view, for observability
// of overlay size and compaction counts.
func (i *Inc) Flat() *graph.Flat { return i.flat }

// Dist returns the current distance vector, aliased to internal state.
func (i *Inc) Dist() []int64 { return i.dist }

// Stats exposes inspection counters and the h/resume time split.
func (i *Inc) Stats() fixpoint.Stats { return i.stats }

// RestoreState overwrites the distance vector with one exported from a
// checkpoint of the same graph. IncSSSP is deducible — the distances ARE
// its complete incremental state (the order <_C is the distance order),
// so dist is all a checkpoint needs to persist. The slice is copied.
func (i *Inc) RestoreState(dist []int64) error {
	if len(dist) != i.g.NumNodes() {
		return fmt.Errorf("sssp: restore of %d distances into graph with %d nodes", len(dist), i.g.NumNodes())
	}
	copy(i.dist, dist)
	return nil
}

// SetTracer installs the span hook observing Repair's h and resume
// phases (see fixpoint.Tracer). Inc is not engine-based, so it drives
// the tracer itself: BeginRun carries the staged-update count as the
// touched size, and rounds are not reported — Dijkstra's priority loop
// has no BFS-level structure. Call from the single writer goroutine.
func (i *Inc) SetTracer(t fixpoint.Tracer) { i.tracer = t }

// Apply computes G ⊕ ΔG and incrementally repairs the distances,
// returning |H⁰|.
func (i *Inc) Apply(b graph.Batch) int {
	i.Stage(b)
	return i.Repair()
}

// Stage materializes G ⊕ ΔG without repairing, so benchmarks can time
// Repair — the algorithm proper — separately from graph mutation.
func (i *Inc) Stage(b graph.Batch) {
	applied := i.g.Apply(b.Net(i.g.Directed()))
	i.pending = append(i.pending, applied...)
	i.flat.Stage(i.g, applied)
	i.flat.MaybeCompact(i.g)
	for len(i.dist) < i.g.NumNodes() {
		i.dist = append(i.dist, Infinity)
		i.hkey = append(i.hkey, 0)
		i.oldVal = append(i.oldVal, 0)
		i.mark = append(i.mark, 0)
		i.affMark = append(i.affMark, 0)
		i.chMark = append(i.chMark, 0)
		i.chOld = append(i.chOld, 0)
	}
	if cap(i.chList) < len(i.dist) {
		cl := make([]graph.NodeID, len(i.chList), len(i.dist))
		copy(cl, i.chList)
		i.chList = cl
	}
	i.wq.Grow(len(i.dist))
	i.hq.Grow(len(i.dist))
}

// ledgerAff records v's first entry into this repair's affected area:
// |AFF| grows by one and ‖AFF‖ by v's incident edges. Allocation-free:
// membership is an epoch mark, degrees are adjacency-slice lengths.
func (i *Inc) ledgerAff(v graph.NodeID) {
	if i.affMark[v] == i.epoch {
		return
	}
	i.affMark[v] = i.epoch
	i.stats.Ledger.Aff++
	deg := int64(len(i.g.Out(v)))
	if i.g.Directed() {
		deg += int64(len(i.g.In(v)))
	}
	i.stats.Ledger.AffEdges += deg
}

// ledgerWrite records a distance write at v, capturing the pre-write value
// on the first write of this repair — v's repair-start distance. The
// settle sweep at the end of Repair compares it against the fixpoint:
// CHANGED is {v : dist_final ≠ dist_start}, which — unlike "installed at
// least once" — does not count transient moves that revert, and is
// therefore identical between the sequential and parallel resume paths.
func (i *Inc) ledgerWrite(v graph.NodeID, old int64) {
	if i.chMark[v] == i.epoch {
		return
	}
	i.chMark[v] = i.epoch
	i.chOld[v] = old
	i.chList = append(i.chList, v)
}

// ledgerSettle sweeps the repair's written nodes into CHANGED (and AFF)
// where the final distance differs from the repair-start one.
func (i *Inc) ledgerSettle() {
	for _, v := range i.chList {
		if i.dist[v] != i.chOld[v] {
			i.stats.Ledger.Changed++
			i.ledgerAff(v)
		}
	}
	i.chList = i.chList[:0]
}

// oldDist returns v's distance as of the start of this round.
func (i *Inc) oldDist(v graph.NodeID) int64 {
	if i.mark[v] == i.epoch {
		return i.oldVal[v]
	}
	return i.dist[v]
}

// Repair runs h and the resumed step function over the staged updates.
func (i *Inc) Repair() int {
	applied := i.pending
	i.pending = nil
	if len(applied) == 0 {
		return 0
	}
	i.epoch++
	i.chList = i.chList[:0]
	st0 := i.stats
	i.stats.Ledger.Runs++
	i.stats.Ledger.Touched += int64(len(applied))
	i.stats.Ledger.RecomputeEst = int64(i.g.NumNodes())
	if i.tracer != nil {
		i.tracer.BeginRun(len(applied), 0)
	}
	start := time.Now()

	// Seed h with the heads of deleted tight edges (anchor candidates);
	// inserted edges only improve their heads, so their tails go straight
	// to the step-function queue.
	h0 := 0
	tight := func(u, v graph.NodeID, w int64) bool {
		return i.dist[u] < Infinity && i.dist[u]+w == i.dist[v]
	}
	for _, up := range applied {
		if up.Kind != graph.DeleteEdge {
			continue
		}
		if tight(up.From, up.To, up.W) {
			i.hEnqueue(up.To)
		}
		if !i.g.Directed() && tight(up.To, up.From, up.W) {
			i.hEnqueue(up.From)
		}
	}

	// h (Fig. 4): revise in ascending old-distance order. Nodes whose old
	// values survive the feasibility check need no further action: their
	// update functions lost only non-tight candidates.
	var revised []graph.NodeID
	for {
		v, ok := i.hq.Pop()
		if !ok {
			break
		}
		i.stats.HPops++
		h0++
		i.ledgerAff(v)
		dv := i.oldDist(v)
		newv := i.feasibleValue(v, dv)
		if newv > i.dist[v] {
			if i.mark[v] != i.epoch {
				i.mark[v] = i.epoch
				i.oldVal[v] = i.dist[v]
			}
			i.ledgerWrite(v, i.dist[v])
			i.dist[v] = newv
			i.stats.HResets++
			revised = append(revised, v)
			// Propagate along v's anchor edges only: C_xw = tight in-edges
			// (Example 3), i.e. out-edges (v, w) with old dist_v + w(v, w)
			// = old dist_w. Non-tight edges never justified w's value.
			i.hAnchors(v, dv)
		}
	}
	mid := time.Now()
	if i.tracer != nil {
		i.tracer.ScopeDone(i.stats.HPops-st0.HPops, i.stats.HResets-st0.HResets, int64(h0))
	}

	// Resume the batch step function: recompute the revised nodes from
	// actual values, relax the inserted edges against the (now feasible)
	// status, then run Dijkstra's loop (lines 4-10 of Fig. 1).
	for _, v := range revised {
		if nb := i.best(v); nb != i.dist[v] {
			i.ledgerWrite(v, i.dist[v])
			i.dist[v] = nb
		}
		i.wq.AddOrAdjust(v)
	}
	relax := func(u, v graph.NodeID, w int64) {
		i.ledgerAff(u) // push-seed analog: the tail re-propagates
		if i.dist[u] < Infinity && i.dist[u]+w < i.dist[v] {
			i.ledgerWrite(v, i.dist[v])
			i.dist[v] = i.dist[u] + w
			i.wq.AddOrAdjust(v)
		}
	}
	for _, up := range applied {
		if up.Kind != graph.InsertEdge {
			continue
		}
		i.stats.Ledger.Seeds++
		relax(up.From, up.To, up.W)
		if !i.g.Directed() {
			relax(up.To, up.From, up.W)
		}
	}
	if i.par.Workers() > 1 {
		i.drainParallel()
	} else {
		// The outer loop counts BFS-level rounds into the ledger (queue
		// size at round start bounds the inner pops) without changing
		// Dijkstra's pop order.
		for i.wq.Len() > 0 {
			i.stats.Ledger.Rounds++
			i.popRound(i.wq.Len())
		}
	}
	i.ledgerSettle()
	i.stats.ScopeSize = int64(h0)
	i.stats.HSeconds += mid.Sub(start).Seconds()
	i.stats.ResumeSeconds += time.Since(mid).Seconds()
	if i.tracer != nil {
		// Inc does not count value changes in the resume phase; the pops
		// delta carries the propagation cost.
		i.tracer.EndRun(i.stats.Pops-st0.Pops, 0)
	}
	return h0
}

func (i *Inc) hEnqueue(v graph.NodeID) {
	i.hkey[v] = i.oldDist(v)
	i.hq.AddOrAdjust(v)
}

// popRound pops n nodes in Dijkstra's priority order and relaxes their
// out-edges sequentially: one round of the resumed step function.
func (i *Inc) popRound(n int) {
	for ; n > 0; n-- {
		v, ok := i.wq.Pop()
		if !ok {
			return
		}
		i.stats.Pops++
		if dv := i.dist[v]; dv < Infinity {
			i.relaxOut(v, dv)
		}
	}
}

// hAnchors is h's anchor propagation: enqueue every out-neighbor w with
// old dist_v + w(v, w) = old dist_w.
func (i *Inc) hAnchors(v graph.NodeID, dv int64) {
	if dv >= Infinity {
		return
	}
	ts, ws, dead, extra := i.flat.OutSpans(v)
	if dead == nil {
		for k, t := range ts {
			if dv+ws[k] == i.oldDist(t) {
				i.hEnqueue(t)
			}
		}
	} else {
		for k, t := range ts {
			if !dead[k] && dv+ws[k] == i.oldDist(t) {
				i.hEnqueue(t)
			}
		}
	}
	for _, e := range extra {
		if dv+e.W == i.oldDist(e.To) {
			i.hEnqueue(e.To)
		}
	}
}

// relaxOut relaxes every live out-edge of v at distance dv through the
// flat spans: the struct-of-arrays inner loop of the resumed Dijkstra,
// scanning contiguous target and weight arrays instead of chasing []Edge
// pointers.
func (i *Inc) relaxOut(v graph.NodeID, dv int64) {
	ts, ws, dead, extra := i.flat.OutSpans(v)
	if dead == nil {
		for k, t := range ts {
			i.stats.Updates++
			if alt := dv + ws[k]; alt < i.dist[t] {
				i.ledgerWrite(t, i.dist[t])
				i.dist[t] = alt
				i.wq.AddOrAdjust(t)
			}
		}
	} else {
		for k, t := range ts {
			if dead[k] {
				continue
			}
			i.stats.Updates++
			if alt := dv + ws[k]; alt < i.dist[t] {
				i.ledgerWrite(t, i.dist[t])
				i.dist[t] = alt
				i.wq.AddOrAdjust(t)
			}
		}
	}
	for _, e := range extra {
		i.stats.Updates++
		if alt := dv + e.W; alt < i.dist[e.To] {
			i.ledgerWrite(e.To, i.dist[e.To])
			i.dist[e.To] = alt
			i.wq.AddOrAdjust(e.To)
		}
	}
}

// feasibleValue evaluates f_v on the feasible input set Ȳ_v: in-neighbors
// determined at or after v in the old distance order contribute their
// initial value ∞ (Fig. 4, lines 5-6). The meet is the branch-free
// MinInt64; distances stay within [0, Infinity] and edge weights within
// [0, graph.MaxEdgeWeight], so the no-overflow precondition holds.
func (i *Inc) feasibleValue(v graph.NodeID, dv int64) int64 {
	if v == i.src {
		return 0
	}
	best := Infinity
	ts, ws, dead, extra := i.flat.InSpans(v)
	for k, u := range ts {
		if dead != nil && dead[k] {
			continue
		}
		i.stats.Reads++
		if i.oldDist(u) >= dv {
			continue // determined later: its feasible stand-in is ∞
		}
		if d := i.dist[u]; d < Infinity {
			best = fixpoint.MinInt64(best, d+ws[k])
		}
	}
	for _, e := range extra {
		i.stats.Reads++
		if i.oldDist(e.To) >= dv {
			continue
		}
		if d := i.dist[e.To]; d < Infinity {
			best = fixpoint.MinInt64(best, d+e.W)
		}
	}
	return best
}

// best is Dijkstra's relaxation target: the minimum in-neighbor distance
// plus weight, on actual current values (branch-free meet).
func (i *Inc) best(v graph.NodeID) int64 {
	if v == i.src {
		return 0
	}
	best := Infinity
	ts, ws, dead, extra := i.flat.InSpans(v)
	for k, u := range ts {
		if dead != nil && dead[k] {
			continue
		}
		i.stats.Reads++
		if d := i.dist[u]; d < Infinity {
			best = fixpoint.MinInt64(best, d+ws[k])
		}
	}
	for _, e := range extra {
		i.stats.Reads++
		if d := i.dist[e.To]; d < Infinity {
			best = fixpoint.MinInt64(best, d+e.W)
		}
	}
	return best
}
