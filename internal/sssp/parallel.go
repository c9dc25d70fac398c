package sssp

import (
	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
)

// Parallel execution mode for the specialized IncSSSP maintainer, driven
// by the engine's round driver (fixpoint.RoundDriver): Repair's resumed
// Dijkstra loop is decomposed into rounds; each round's queue snapshot is
// partitioned across the driver's pool, workers relax their chunk's
// out-edges against the frozen round-start distances into per-worker
// candidate buffers, and the merge installs the buffers sequentially in
// stable (worker, emission) order through the monotone meet (min).
// Distances converge to the same unique fixpoint as the sequential loop
// (chaotic relaxation over positive weights); the h phase stays
// sequential — it is ordered by <_C and bounded by |ΔG|.

// ssspCand is one buffered relaxation: distance d proposed for node v.
type ssspCand struct {
	v graph.NodeID
	d int64
}

// ssspWorker is the per-worker candidate buffer of the parallel resume,
// reused across rounds and repairs.
type ssspWorker struct{ cands []ssspCand }

// SetWorkers sets the worker count for subsequent Repairs: n >= 2
// partitions every resume round whose queue reaches the driver's
// threshold across n workers; n <= 1 restores the sequential loop (the
// default) with zero added allocations. Part of the single-writer
// contract: call only between Applies, from the writer goroutine.
func (i *Inc) SetWorkers(n int) {
	if !i.par.SetWorkers(n) {
		return
	}
	if i.par.Workers() <= 1 {
		i.ws = nil
		return
	}
	i.ws = make([]ssspWorker, i.par.Workers())
	if i.parRelaxFn == nil {
		i.parRelaxFn = i.relaxChunk
	}
}

// relaxChunk is the parallel relax kernel: worker w scans the out-edges
// of its chunk of the frontier through the flat spans and buffers every
// improving candidate. The flat view is immutable for the whole resume —
// Stage ran before Repair — so concurrent readers are safe. It returns
// the out-edges scanned, the round's work units.
func (i *Inc) relaxChunk(w int) int64 {
	pw := &i.ws[w]
	var scanned int64
	lo, hi := i.par.Span(w)
	for _, v := range i.frontier[lo:hi] {
		dv := i.dist[v]
		if dv >= Infinity {
			continue
		}
		ts, ws, dead, extra := i.flat.OutSpans(v)
		for k, t := range ts {
			if dead != nil && dead[k] {
				continue
			}
			scanned++
			if alt := dv + ws[k]; alt < i.dist[t] {
				pw.cands = append(pw.cands, ssspCand{t, alt})
			}
		}
		for _, e := range extra {
			scanned++
			if alt := dv + e.W; alt < i.dist[e.To] {
				pw.cands = append(pw.cands, ssspCand{e.To, alt})
			}
		}
	}
	return scanned
}

// Workers returns the configured worker count (1 = sequential).
func (i *Inc) Workers() int { return i.par.Workers() }

// ParStats returns the cumulative parallel-resume counters; zero-valued
// while the maintainer runs sequentially.
func (i *Inc) ParStats() fixpoint.ParStats { return i.par.ParStats() }

// Close releases the worker pool, if any; the maintainer stays usable
// (the pool respawns lazily on the next parallel round).
func (i *Inc) Close() { i.par.Close() }

// drainParallel is the parallel resumed step function: rounds below the
// threshold run the sequential relaxation inline (in Dijkstra's priority
// order); larger rounds are partitioned across the pool.
func (i *Inc) drainParallel() {
	round := 0
	for i.wq.Len() > 0 {
		frontier := i.wq.Len()
		round++
		i.stats.Ledger.Rounds++
		if i.par.InlineRound(frontier) {
			i.popRound(frontier)
			continue
		}
		i.parRound(round)
	}
}

// parRound processes one partitioned resume round.
func (i *Inc) parRound(round int) {
	// Snapshot the queue in priority order — the deterministic basis for
	// partitioning and merging.
	i.frontier = i.frontier[:0]
	for {
		v, ok := i.wq.Pop()
		if !ok {
			break
		}
		i.frontier = append(i.frontier, v)
	}
	n := len(i.frontier)
	i.stats.Pops += int64(n)
	k := i.par.Partition(n)
	i.par.Run(k, i.parRelaxFn)

	// Deterministic merge: stable (worker, emission) order, monotone min.
	var installs int64
	for w := 0; w < k; w++ {
		pw := &i.ws[w]
		for _, c := range pw.cands {
			if c.d < i.dist[c.v] {
				i.ledgerWrite(c.v, i.dist[c.v])
				i.dist[c.v] = c.d
				i.wq.AddOrAdjust(c.v)
				installs++
			}
		}
		pw.cands = pw.cands[:0]
	}
	scanned, busiest, wall := i.par.EndRound(n)
	i.stats.Updates += scanned
	if i.tracer != nil {
		i.tracer.Round(round, int64(n), int64(n), installs, int64(i.wq.Len()))
		if pt, ok := i.tracer.(fixpoint.ParRoundTracer); ok {
			pt.ParRound(round, i.par.Workers(), int64(n), scanned, busiest, wall)
		}
	}
}
