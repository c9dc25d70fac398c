package fixpoint

// This file implements the engine's parallel execution mode: a round-level
// work-sharing scheme over the worklist drain. Each BFS round's frontier is
// partitioned into contiguous chunks across a reusable worker Pool; workers
// compute candidate values into per-worker buffers against the round-start
// state (no shared writes), and the driver then merges the buffers
// sequentially in stable (worker, emission) order through the same monotone
// meet the sequential path uses. The paper's conditions make this safe:
// for contracting and monotonic instances (C2, §4) chaotic iteration
// converges to the unique fixpoint (Lemma 2), so the final values are
// bit-identical to a sequential run's. Timestamps and counters may differ
// from the sequential schedule — they record a different, equally valid
// determination order <_C — but are fully deterministic for a fixed worker
// count: same state, same batch, same n ⇒ same values, timestamps, stats.
//
// The initial scope function h stays sequential: it is ordered by the
// previous run's timestamps and is bounded by |ΔG|-sized anchor sets, so
// there is no round structure to share.

// Option configures an Engine at construction. Options are shared across
// value domains (they carry no V), so New(inst, policy, WithWorkers(4))
// infers V from the instance alone.
type Option func(*config)

type config struct {
	workers      int
	parThreshold int
}

// WithWorkers sets the engine's worker count for parallel round drains.
// n <= 1 keeps the sequential path (the default), with zero added
// allocations on every run. See Engine.SetWorkers for the contract.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithParThreshold sets the minimum frontier size for a round to be
// partitioned across workers; smaller rounds run inline on the driver.
// The default (64) suits graph workloads; tests lower it to force tiny
// rounds through the parallel machinery.
func WithParThreshold(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.parThreshold = n
	}
}

// ParStats counts the work of the parallel drain. Like Stats it is
// cumulative across runs; serve-layer snapshots use Sub/Add to isolate
// per-apply deltas. Imbalance is work-based — the busiest worker's share
// of a round's candidate computations relative to a perfectly even split
// (1.0 = balanced, k = one worker did everything) — so a single hub
// vertex dominating one partition shows up even when partition sizes are
// equal by construction.
type ParStats struct {
	// Workers is the configured worker count (0 or 1 = sequential).
	Workers int `json:"workers"`
	// ParRounds and SeqRounds count drain rounds that were partitioned
	// across workers vs processed inline (frontier below threshold).
	ParRounds int64 `json:"par_rounds"`
	SeqRounds int64 `json:"seq_rounds"`
	// Items is the total frontier size across parallel rounds.
	Items int64 `json:"items"`
	// Candidates is the total candidate computations by workers: relaxed
	// out-edges in push mode, dependent discoveries plus update-function
	// evaluations in pull mode.
	Candidates int64 `json:"candidates"`
	// BusyNanos is summed worker compute time; WallNanos is elapsed time
	// of the parallel phases. BusyNanos / (Workers × WallNanos) is the
	// pool utilization (see Utilization).
	BusyNanos int64 `json:"busy_nanos"`
	WallNanos int64 `json:"wall_nanos"`
	// LastImbalance is the work imbalance of the most recent parallel
	// round; MaxImbalance the worst observed. 1.0 means perfectly even.
	LastImbalance float64 `json:"last_imbalance"`
	MaxImbalance  float64 `json:"max_imbalance"`
}

// Utilization returns the fraction of available worker time spent
// computing, BusyNanos / (Workers × WallNanos), in [0, 1]. Returns 0
// when no parallel round has run.
func (p ParStats) Utilization() float64 {
	if p.Workers <= 0 || p.WallNanos <= 0 {
		return 0
	}
	u := float64(p.BusyNanos) / (float64(p.Workers) * float64(p.WallNanos))
	if u > 1 {
		u = 1
	}
	return u
}

// Sub returns the counter-wise difference p − o, isolating the parallel
// work of the span between two snapshots of the same cumulative ParStats.
// Workers and the Last/Max imbalance gauges are not cumulative; the newer
// snapshot's values are kept.
func (p ParStats) Sub(o ParStats) ParStats {
	return ParStats{
		Workers:       p.Workers,
		ParRounds:     p.ParRounds - o.ParRounds,
		SeqRounds:     p.SeqRounds - o.SeqRounds,
		Items:         p.Items - o.Items,
		Candidates:    p.Candidates - o.Candidates,
		BusyNanos:     p.BusyNanos - o.BusyNanos,
		WallNanos:     p.WallNanos - o.WallNanos,
		LastImbalance: p.LastImbalance,
		MaxImbalance:  p.MaxImbalance,
	}
}

// Add returns the counter-wise sum p + o, for aggregating per-run deltas
// into a running total. Workers and LastImbalance take o's (most recent)
// values; MaxImbalance is the maximum of the two.
func (p ParStats) Add(o ParStats) ParStats {
	maxImb := p.MaxImbalance
	if o.MaxImbalance > maxImb {
		maxImb = o.MaxImbalance
	}
	return ParStats{
		Workers:       o.Workers,
		ParRounds:     p.ParRounds + o.ParRounds,
		SeqRounds:     p.SeqRounds + o.SeqRounds,
		Items:         p.Items + o.Items,
		Candidates:    p.Candidates + o.Candidates,
		BusyNanos:     p.BusyNanos + o.BusyNanos,
		WallNanos:     p.WallNanos + o.WallNanos,
		LastImbalance: o.LastImbalance,
		MaxImbalance:  maxImb,
	}
}

// ParRoundTracer is an optional Tracer extension for parallel drains.
// Like Tracer it uses only builtin types so implementations (e.g.
// internal/trace) satisfy it structurally without importing this
// package. A Tracer that implements it receives ParRound after Round for
// every partitioned round, from the goroutine driving the engine.
type ParRoundTracer interface {
	// ParRound reports one partitioned propagation round: the worker
	// count it was split across, the frontier size, the candidates
	// computed by workers, the busiest single worker's compute
	// nanoseconds, and the round's elapsed parallel-phase nanoseconds.
	ParRound(round, workers int, frontier, candidates, busiestNanos, wallNanos int64)
}

// parCand is one buffered candidate: worker w proposes value v for
// variable x, to be installed by the driver during the merge.
type parCand[V any] struct {
	x Var
	v V
}

// parWorker is the per-worker state of the parallel drain. Buffers are
// retained on the engine and reused across rounds and runs; only the
// worker that owns the struct touches it between pool dispatch and
// pool completion, and the driver reads/resets it after Run returns.
type parWorker[V any] struct {
	cands []parCand[V] // candidate values computed this round
	deps  []Var        // pull mode: dependents discovered this round
	reads int64        // pull mode: status reads by Update

	emit func(Var, V) // push mode RelaxOut sink (hoisted, no per-round closures)
	dep  func(Var)    // pull mode Dependents sink
	get  func(Var) V  // pull mode Update reader
}

// SetWorkers sets the worker count for subsequent runs: n >= 2 partitions
// every round whose frontier reaches the threshold across n workers;
// n <= 1 restores the sequential path (and releases the pool's
// goroutines). Part of the engine's single-writer contract: call it only
// from the goroutine that drives the engine, never during a run.
func (e *Engine[V]) SetWorkers(n int) {
	if !e.par.SetWorkers(n) {
		return
	}
	n = e.par.Workers()
	if n <= 1 {
		e.parWs = nil
		return
	}
	e.parWs = make([]parWorker[V], n)
	for w := range e.parWs {
		pw := &e.parWs[w]
		pw.emit = func(z Var, cand V) { pw.cands = append(pw.cands, parCand[V]{z, cand}) }
		pw.dep = func(z Var) { pw.deps = append(pw.deps, z) }
		pw.get = func(y Var) V {
			pw.reads++
			return e.st.Val[y]
		}
	}
	if e.parRelaxFn == nil {
		// Each chunk function returns its work units: the candidates or
		// dependents it buffered.
		e.parRelaxFn = func(w int) int64 {
			pw := &e.parWs[w]
			n0 := len(pw.cands)
			lo, hi := e.par.Span(w)
			for _, x := range e.frontier[lo:hi] {
				e.relaxer.RelaxOut(x, e.st.Val[x], pw.emit)
			}
			return int64(len(pw.cands) - n0)
		}
		e.parDepFn = func(w int) int64 {
			pw := &e.parWs[w]
			n0 := len(pw.deps)
			lo, hi := e.par.Span(w)
			for _, x := range e.frontier[lo:hi] {
				e.inst.Dependents(x, pw.dep)
			}
			return int64(len(pw.deps) - n0)
		}
		e.parEvalFn = func(w int) int64 {
			pw := &e.parWs[w]
			lo, hi := e.par.Span(w)
			for _, z := range e.recomp[lo:hi] {
				pw.cands = append(pw.cands, parCand[V]{z, e.inst.Update(z, pw.get)})
			}
			return int64(hi - lo)
		}
	}
}

// Workers returns the configured worker count (1 = sequential).
func (e *Engine[V]) Workers() int { return e.par.Workers() }

// ParStats returns the cumulative parallel-drain counters. Zero-valued
// while the engine runs sequentially.
func (e *Engine[V]) ParStats() ParStats { return e.par.ParStats() }

// Close releases the engine's worker pool, if any. A sequential engine
// holds no resources and Close is a no-op; a parallel engine parks
// n-1 goroutines between runs, and Close unparks and ends them. The
// engine remains usable afterwards — the pool is respawned lazily on the
// next parallel round.
func (e *Engine[V]) Close() { e.par.Close() }

// dispatchDrain routes a drain to the configured path: partitioned rounds
// when workers are set, traced rounds when only a tracer is, and the
// tight sequential loop otherwise. The sequential cases stay free of any
// parallel bookkeeping, preserving the zero-allocation guarantee.
func (e *Engine[V]) dispatchDrain() {
	if e.par.Workers() > 1 {
		e.drainPar()
	} else if e.tracer != nil {
		e.drainRounds()
	} else {
		e.drain()
	}
}

// drainPar is the parallel step function: drain decomposed into BFS
// rounds (as drainRounds), with each round's frontier either processed
// inline (below threshold) or partitioned across the worker pool. Rounds
// are synchronous — the merge completes before the next frontier is
// snapshot — so workers only ever read round-start state.
func (e *Engine[V]) drainPar() {
	round := 0
	for e.wl.Len() > 0 {
		frontier := e.wl.Len()
		round++
		e.st.Stats.Ledger.Rounds++
		pops0, changes0 := e.st.Stats.Pops, e.st.Stats.Changes
		if e.par.InlineRound(frontier) {
			for n := 0; n < frontier; n++ {
				x, ok := e.wl.Pop()
				if !ok {
					break
				}
				e.st.Stats.Pops++
				if e.relaxer != nil {
					e.relaxer.RelaxOut(x, e.st.Val[x], e.emitFn)
				} else {
					e.inst.Dependents(x, e.visitFn)
				}
			}
			if e.tracer != nil {
				e.tracer.Round(round, int64(frontier),
					e.st.Stats.Pops-pops0, e.st.Stats.Changes-changes0, int64(e.wl.Len()))
			}
			continue
		}
		cands, busiest, wall := e.parRound()
		if e.tracer != nil {
			e.tracer.Round(round, int64(frontier),
				e.st.Stats.Pops-pops0, e.st.Stats.Changes-changes0, int64(e.wl.Len()))
			if e.parTracer != nil {
				e.parTracer.ParRound(round, e.par.Workers(), int64(frontier), cands, busiest, wall)
			}
		}
	}
}

// parRound processes one partitioned round and returns its candidate
// count, busiest worker nanos, and wall nanos for the tracer.
func (e *Engine[V]) parRound() (cands, busiest, wall int64) {
	// Snapshot the frontier in worklist order — the deterministic basis
	// for partitioning and for the merge order below.
	e.frontier = e.frontier[:0]
	for {
		x, ok := e.wl.Pop()
		if !ok {
			break
		}
		e.frontier = append(e.frontier, x)
	}
	e.st.Stats.Pops += int64(len(e.frontier))

	k := e.par.Partition(len(e.frontier))
	if e.relaxer != nil {
		// Push mode: workers relax their chunk's out-edges into candidate
		// buffers; no shared state is written until the merge.
		e.par.Run(k, e.parRelaxFn)
		for w := 0; w < k; w++ {
			pw := &e.parWs[w]
			for _, c := range pw.cands {
				if e.install(c.x, c.v) {
					e.wl.AddOrAdjust(c.x)
				}
			}
			pw.cands = pw.cands[:0]
		}
		return e.par.EndRound(len(e.frontier))
	}
	// Pull mode, two sub-phases. Phase 1: workers discover the frontier's
	// dependents; the driver dedups them (epoch marks) in stable (worker,
	// discovery) order into the recompute list.
	e.par.Run(k, e.parDepFn)
	if e.parSeen == nil || len(e.parSeen) < e.inst.NumVars() {
		e.parSeen = make([]int64, e.inst.NumVars())
	}
	e.parEpoch++
	e.recomp = e.recomp[:0]
	for w := 0; w < k; w++ {
		pw := &e.parWs[w]
		for _, z := range pw.deps {
			if e.parSeen[z] != e.parEpoch {
				e.parSeen[z] = e.parEpoch
				e.recomp = append(e.recomp, z)
			}
		}
		pw.deps = pw.deps[:0]
	}
	// Phase 2: workers evaluate the update functions of their chunk of
	// the recompute list against the round-start state (a Jacobi step —
	// safe for contracting, monotonic instances).
	k = e.par.Partition(len(e.recomp))
	e.par.Run(k, e.parEvalFn)
	for w := 0; w < k; w++ {
		pw := &e.parWs[w]
		e.st.Stats.Reads += pw.reads
		pw.reads = 0
		for _, c := range pw.cands {
			e.st.Stats.Updates++
			if cur := e.st.Val[c.x]; !e.inst.Equal(c.v, cur) {
				e.ledgerWrite(c.x, cur)
				e.st.Val[c.x] = c.v
				e.st.clock++
				e.st.TS[c.x] = e.st.clock
				e.st.Stats.Changes++
				e.wl.AddOrAdjust(c.x)
			}
		}
		pw.cands = pw.cands[:0]
	}
	return e.par.EndRound(len(e.frontier))
}
