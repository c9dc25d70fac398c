package sim

import (
	"fmt"
	"time"

	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
	"incgraph/internal/pq"
)

// Inc is the weakly deducible incremental algorithm IncSim of §5.1, built
// on the same counters and logic as Sim_fp plus one auxiliary structure:
// a timestamp x[v,u].t per pair recording when it turned false. The
// timestamps supply the anchor order <_C, letting the initial scope
// function h of Fig. 4 repair insertions correctly even on cyclic
// patterns, where pure from-below propagation fails (Example 6).
//
// The generic-engine equivalent is IncEngine; both compute the same
// relation (tests cross-check them), but Inc propagates through counters
// the way Sim_fp does and is the implementation the benchmarks exercise.
//
// An Inc is not goroutine-safe: it (and the graph it owns) must be
// driven by a single writer goroutine making every call, reads included.
// Concurrent serving goes through internal/serve, which gives each
// maintainer one apply loop and publishes immutable snapshots to readers.
type Inc struct {
	*simState
	hq      *pq.Heap[int32]
	inH0    []int64
	affMark []int64 // epoch marks: AFF membership (work ledger)
	chMark  []int64 // epoch marks: written this repair (work ledger)
	chOld   []bool  // repair-start match bits of written pairs (work ledger)
	chList  []int32 // written pairs, swept at end of Repair
	// Repair-scope arena, reused across Repairs (the counter-cascade
	// analogue of fixpoint.ScopeArena): vmark/vpos dedupe touched data
	// nodes by epoch, touched/infeasible/h0buf/seedBuf accumulate the
	// per-Repair scope without allocating at steady state.
	vmark      []int64
	vpos       []int32
	touched    []int32
	infeasible []bool
	h0buf      []int32
	seedBuf    [][2]int32
	epoch      int64
	stats      fixpoint.Stats
	tracer     fixpoint.Tracer
	pending    graph.Batch
}

// NewInc computes the initial maximum simulation with timestamp recording
// and returns the algorithm.
func NewInc(g, q *graph.Graph) *Inc {
	s := newSimState(g, q, true)
	i := &Inc{simState: s, inH0: make([]int64, len(s.r)),
		affMark: make([]int64, len(s.r)), chMark: make([]int64, len(s.r)),
		chOld: make([]bool, len(s.r)), chList: make([]int32, 0, len(s.r))}
	i.hq = pq.New(len(s.r), func(a, b int32) bool { return i.ts[a] < i.ts[b] })
	// Record cascade retractions in the ledger (a retracted pair was true
	// before the write); installed after the initial batch cascade above,
	// so only incremental repairs count.
	s.onFalse = func(v, u int32) { i.ledgerWrite(int(v)*i.nq+int(u), true) }
	return i
}

// ledgerAff records pair x's first entry into this repair's affected
// area: |AFF| grows by one and ‖AFF‖ by the pair's dependency degree —
// the dependent pairs over in-neighbors of its data node and pattern
// node, |In(v)|·|In(u)|.
func (i *Inc) ledgerAff(x int) {
	if i.affMark[x] == i.epoch {
		return
	}
	i.affMark[x] = i.epoch
	i.stats.Ledger.Aff++
	v := graph.NodeID(x / i.nq)
	u := graph.NodeID(x % i.nq)
	i.stats.Ledger.AffEdges += int64(len(i.g.In(v))) * int64(len(i.q.In(u)))
}

// ledgerWrite records a write of pair x's match bit, capturing the
// pre-write value on the first write of this repair. The settle sweep at
// the end of Repair counts CHANGED as {x : r_final ≠ r_start}, so a pair
// raised by h and retracted back by the resumed cascade — a transient —
// is not charged.
func (i *Inc) ledgerWrite(x int, old bool) {
	if i.chMark[x] == i.epoch {
		return
	}
	i.chMark[x] = i.epoch
	i.chOld[x] = old
	i.chList = append(i.chList, int32(x))
}

// ledgerSettle sweeps the repair's written pairs into CHANGED (and AFF)
// where the final match bit differs from the repair-start one.
func (i *Inc) ledgerSettle() {
	for _, x := range i.chList {
		if i.r[x] != i.chOld[x] {
			i.stats.Ledger.Changed++
			i.ledgerAff(int(x))
		}
	}
	i.chList = i.chList[:0]
}

// Graph returns the maintained data graph.
func (i *Inc) Graph() *graph.Graph { return i.g }

// Relation returns the current match relation.
func (i *Inc) Relation() Relation { return i.relation() }

// Stats exposes inspection counters and the h/resume time split.
func (i *Inc) Stats() fixpoint.Stats { return i.stats }

// Pattern returns the maintained pattern graph.
func (i *Inc) Pattern() *graph.Graph { return i.q }

// ExportState copies out the state a durability checkpoint persists: the
// match relation, the per-pair support counters, the falsification
// timestamps (IncSim's auxiliary structure, supplying the order <_C),
// and the logical clock.
func (i *Inc) ExportState() (r []bool, cnt []int32, ts []int64, clock int64) {
	return append([]bool(nil), i.r...), append([]int32(nil), i.cnt...),
		append([]int64(nil), i.ts...), i.clock
}

// RestoreState installs state exported from a checkpoint of the same
// data and pattern graphs.
func (i *Inc) RestoreState(r []bool, cnt []int32, ts []int64, clock int64) error {
	want := i.g.NumNodes() * i.nq
	if len(r) != want || len(cnt) != want || len(ts) != want {
		return fmt.Errorf("sim: restore of %d/%d/%d pairs into relation with %d", len(r), len(cnt), len(ts), want)
	}
	copy(i.r, r)
	copy(i.cnt, cnt)
	copy(i.ts, ts)
	i.clock = clock
	return nil
}

// SetTracer installs the span hook observing Repair's h and resume
// phases (see fixpoint.Tracer). Inc is not engine-based, so it drives
// the tracer itself: the touched size is the number of (node, pattern)
// pairs whose input sets evolved, and rounds are not reported — the
// resumed counter cascade is stack-driven, not level-structured. Call
// from the single writer goroutine.
func (i *Inc) SetTracer(t fixpoint.Tracer) { i.tracer = t }

// Apply computes G ⊕ ΔG and incrementally maintains the relation: it
// adjusts the counters for the structural changes, runs the initial scope
// function h over the touched pairs in the order <_C, and resumes the
// counter cascade of Sim_fp on the produced scope H⁰. It returns |H⁰|.
func (i *Inc) Apply(b graph.Batch) int {
	i.Stage(b)
	return i.Repair()
}

// Stage materializes G ⊕ ΔG without repairing the relation, letting
// benchmarks time Repair separately from the graph mutation every method
// needs.
func (i *Inc) Stage(b graph.Batch) {
	i.pending = append(i.pending, i.g.Apply(b.Net(i.g.Directed()))...)
	i.grow()
	for len(i.inH0) < len(i.r) {
		i.inH0 = append(i.inH0, 0)
	}
	for len(i.affMark) < len(i.r) {
		i.affMark = append(i.affMark, 0)
		i.chMark = append(i.chMark, 0)
		i.chOld = append(i.chOld, false)
	}
	if cap(i.chList) < len(i.r) {
		cl := make([]int32, len(i.chList), len(i.r))
		copy(cl, i.chList)
		i.chList = cl
	}
	for len(i.vmark) < i.g.NumNodes() {
		i.vmark = append(i.vmark, 0)
		i.vpos = append(i.vpos, 0)
	}
	i.hq.Grow(len(i.r))
}

// Repair runs the incremental algorithm over the staged updates.
func (i *Inc) Repair() int {
	applied := i.pending
	i.pending = nil
	touched := i.touched[:0]
	infeasible := i.infeasible[:0]
	i.epoch++
	i.chList = i.chList[:0]
	// Insertions can raise pairs (more support, the infeasible direction
	// for Sim, where false ≺ true); deletions only retract and are left
	// to the resumed cascade.
	touch := func(v graph.NodeID, mayRaise bool) {
		if i.vmark[v] == i.epoch {
			if mayRaise {
				p := int(i.vpos[v])
				for u := 0; u < i.nq; u++ {
					infeasible[p+u] = true
				}
			}
			return
		}
		i.vmark[v] = i.epoch
		i.vpos[v] = int32(len(touched))
		for u := 0; u < i.nq; u++ {
			x := int32(int(v)*i.nq + u)
			i.inH0[x] = i.epoch
			i.ledgerAff(int(x))
			touched = append(touched, x)
			infeasible = append(infeasible, mayRaise)
		}
	}
	adjust := func(from, to graph.NodeID, delta int32) {
		for u := 0; u < i.nq; u++ {
			if i.r[int(to)*i.nq+u] {
				i.cnt[int(from)*i.nq+u] += delta
			}
		}
	}
	for _, up := range applied {
		delta := int32(1)
		if up.Kind == graph.DeleteEdge {
			delta = -1
		}
		adjust(up.From, up.To, delta)
		if !i.g.Directed() {
			adjust(up.To, up.From, delta)
		}
		// The input sets of the changed edge's source pairs evolved; for
		// undirected data graphs the other endpoint's pairs too.
		mayRaise := up.Kind == graph.InsertEdge
		touch(up.From, mayRaise)
		if !i.g.Directed() {
			touch(up.To, mayRaise)
		}
	}
	i.touched, i.infeasible = touched, infeasible
	if len(touched) == 0 {
		return 0
	}
	st0 := i.stats
	i.stats.Ledger.Runs++
	i.stats.Ledger.Touched += int64(len(touched))
	i.stats.Ledger.RecomputeEst = int64(len(i.r))
	if i.tracer != nil {
		i.tracer.BeginRun(len(touched), 0)
	}
	start := time.Now()
	h0 := i.scopeFunction(touched, infeasible)
	mid := time.Now()
	if i.tracer != nil {
		i.tracer.ScopeDone(i.stats.HPops-st0.HPops, i.stats.HResets-st0.HResets, int64(len(h0)))
	}
	i.resume(h0)
	i.ledgerSettle()
	i.stats.ScopeSize = int64(len(h0))
	i.stats.HSeconds += mid.Sub(start).Seconds()
	i.stats.ResumeSeconds += time.Since(mid).Seconds()
	if i.tracer != nil {
		// The counter cascade does not count pops or changes; EndRun
		// carries only the resume span's timing.
		i.tracer.EndRun(0, 0)
	}
	return len(h0)
}

// scopeFunction is h (Fig. 4) specialized to Sim: pairs are revised in
// ascending turn-off time; a popped false pair whose simulation condition
// holds on its feasible input set — later-determined inputs replaced by
// their label-match bottoms — is potentially infeasible and is raised back
// to true, propagating to the dependent pairs it may anchor.
func (i *Inc) scopeFunction(touched []int32, infeasible []bool) []int32 {
	h0 := append(i.h0buf[:0], touched...)
	defer func() { i.h0buf = h0[:0] }()
	for j, x := range touched {
		if infeasible[j] && !i.r[x] {
			i.hq.AddOrAdjust(x)
		}
	}
	for {
		x, ok := i.hq.Pop()
		if !ok {
			break
		}
		i.stats.HPops++
		if i.r[x] {
			continue // true pairs are at the bottom already: feasible
		}
		v := graph.NodeID(int(x) / i.nq)
		u := graph.NodeID(int(x) % i.nq)
		if i.g.Label(v) != i.q.Label(u) {
			continue
		}
		tsx := i.ts[x]
		if !i.feasibleCond(v, u, tsx) {
			continue
		}
		// Potentially infeasible: raise the pair back to true.
		i.ledgerWrite(int(x), false)
		i.r[x] = true
		i.ts[x] = tsTrue
		i.stats.HResets++
		if i.inH0[x] != i.epoch {
			i.inH0[x] = i.epoch
			i.ledgerAff(int(x))
			h0 = append(h0, x)
		}
		for _, ge := range i.g.In(v) {
			i.cnt[int(ge.To)*i.nq+int(u)]++
		}
		// Enqueue dependents that x may anchor: pairs over in-neighbors
		// with larger turn-off times.
		for _, ge := range i.g.In(v) {
			for _, qe := range i.q.In(u) {
				z := int32(int(ge.To)*i.nq + int(qe.To))
				if !i.r[z] && i.ts[z] > tsx {
					i.hq.AddOrAdjust(z)
				}
			}
		}
	}
	return h0
}

// feasibleCond evaluates the simulation condition for (v, u) on the
// feasible input set Ȳ: inputs determined after tsx are replaced by their
// label-match bottoms.
func (i *Inc) feasibleCond(v, u graph.NodeID, tsx int64) bool {
	for _, qe := range i.q.Out(u) {
		found := false
		for _, ge := range i.g.Out(v) {
			p := int(ge.To)*i.nq + int(qe.To)
			i.stats.Reads++
			if i.ts[p] > tsx {
				// Determined after (v, u): use the bottom value.
				if i.g.Label(ge.To) == i.q.Label(qe.To) {
					found = true
					break
				}
				continue
			}
			if i.r[p] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// resume is the step function of Sim_fp run from the scope H⁰: every
// scope pair with an exhausted requirement counter seeds the usual
// violation cascade.
func (i *Inc) resume(h0 []int32) {
	seeds := i.seedBuf[:0]
	defer func() { i.seedBuf = seeds[:0] }()
	for _, x := range h0 {
		v := int32(int(x) / i.nq)
		u := graph.NodeID(int(x) % i.nq)
		if !i.r[x] {
			continue
		}
		for _, qe := range i.q.Out(u) {
			if i.cnt[int(v)*i.nq+int(qe.To)] == 0 {
				seeds = append(seeds, [2]int32{v, int32(qe.To)})
			}
		}
	}
	i.cascade(seeds)
}
