package serve

import (
	"encoding/gob"
	"io"

	"incgraph/internal/bc"
	"incgraph/internal/cc"
	"incgraph/internal/dfs"
	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
	"incgraph/internal/lcc"
	"incgraph/internal/sim"
	"incgraph/internal/sssp"
)

// The adapters below wrap each incremental maintainer as a Serveable.
// Every Snapshot deep-copies the maintainer's result, because the
// maintainers alias internal state from their accessors (Dist, Labels, …)
// and keep mutating it across Apply calls; the copy is what makes the
// published views immutable.
//
// Apply returns an ApplyResult instead of the bare affected count: the
// engine-based maintainers (SSSP, CC, Sim) expose cumulative
// fixpoint.Stats, so each adapter snapshots the counters around Apply
// and reports the per-apply delta — the numbers Theorem 3 is about —
// rather than discarding them. DFS, LCC, and BC repair with specialized
// machinery and report only the affected-area measure.
//
// PersistState/RestoreState serialize the maintainer's incremental state
// as a gob blob for durability checkpoints. What each class persists is
// exactly what Theorem 1's weak deducibility says it must keep beyond
// the answer itself: the engine-backed classes persist their timestamps
// and clock (the anchor order <_C), sim its falsification timestamps,
// dfs/lcc nothing beyond the interval/status variables, and bc the
// component-id map. Recompute rebuilds the maintainer by re-running the
// batch algorithm over the current graph — the self-healing and
// recovery-verification path.

// SSSPView is the published snapshot of an SSSP maintainer.
type SSSPView struct {
	// Src is the source node.
	Src graph.NodeID `json:"src"`
	// Dist[v] is the shortest distance from Src to v; graph.Infinity for
	// unreachable nodes.
	Dist []int64 `json:"dist"`
}

type ssspServeable struct {
	inc *sssp.Inc
	src graph.NodeID
}

// SSSP adapts an IncSSSP maintainer.
func SSSP(inc *sssp.Inc, src graph.NodeID) Serveable {
	return &ssspServeable{inc: inc, src: src}
}

func (s *ssspServeable) Algo() string        { return "sssp" }
func (s *ssspServeable) Graph() *graph.Graph { return s.inc.Graph() }
func (s *ssspServeable) Apply(b graph.Batch) ApplyResult {
	return statsDelta(s.inc, s.inc.Graph(), len(b), func() int { return s.inc.Apply(b) })
}
func (s *ssspServeable) Snapshot() any {
	return SSSPView{Src: s.src, Dist: append([]int64(nil), s.inc.Dist()...)}
}
func (s *ssspServeable) SetTracer(t fixpoint.Tracer) { s.inc.SetTracer(t) }

// SetWorkers and ParStats forward the parallel execution mode to the
// current inner maintainer (Recompute replaces it, so the host re-applies
// the setting after a heal).
func (s *ssspServeable) SetWorkers(n int)            { s.inc.SetWorkers(n) }
func (s *ssspServeable) ParStats() fixpoint.ParStats { return s.inc.ParStats() }

// ssspState is the gob envelope of PersistState: the distances are
// IncSSSP's complete incremental state (deducible; <_C is distance
// order).
type ssspState struct{ Dist []int64 }

func (s *ssspServeable) PersistState(w io.Writer) error {
	return gob.NewEncoder(w).Encode(ssspState{Dist: s.inc.Dist()})
}
func (s *ssspServeable) RestoreState(r io.Reader) error {
	var st ssspState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	return s.inc.RestoreState(st.Dist)
}
func (s *ssspServeable) Recompute() { s.inc = sssp.NewInc(s.inc.Graph(), s.src) }

// statser is the slice of the maintainer API the stats plumbing needs.
type statser interface{ Stats() fixpoint.Stats }

// statsDelta runs one Apply on a stats-exposing maintainer and packages
// the affected count with the counter delta attributable to that apply.
// Maintainers that also expose parallel-drain counters and have workers
// configured additionally report the per-apply ParStats delta.
//
// The per-apply work ledger rides the same Stats snapshot: the engine
// fills |CHANGED|, |AFF|, ‖AFF‖, and rounds, and the adapter completes
// the cost model with the two quantities only the serving layer knows —
// |ΔG| (the net batch size) and the recompute estimate (nodes + edges of
// the graph after the apply).
func statsDelta(m statser, g *graph.Graph, delta int, apply func() int) ApplyResult {
	before := m.Stats()
	var parBefore fixpoint.ParStats
	ps, hasPar := m.(parStatser)
	if hasPar {
		parBefore = ps.ParStats()
	}
	aff := apply()
	res := ApplyResult{Affected: aff, Stats: m.Stats().Sub(before), HasStats: true}
	if hasPar {
		res.Par = ps.ParStats().Sub(parBefore)
		res.HasPar = res.Par.Workers > 1
	}
	res.Ledger = res.Stats.Ledger
	res.Ledger.Delta = int64(delta)
	res.Ledger.RecomputeEst = int64(g.NumNodes() + g.NumEdges())
	res.HasLedger = true
	return res
}

// syntheticLedger builds the work ledger for the specialized classes
// (DFS, LCC, BC) that repair without the fixpoint engine: the batch size
// stands in for the touched set, the affected-area measure for both
// |CHANGED| and |AFF| (their repair machinery reports only the combined
// measure), and ‖AFF‖/rounds stay zero — Work degrades to touched+|AFF|,
// which is still the quantity Theorem 3 bounds for these classes.
func syntheticLedger(g *graph.Graph, delta, affected int) fixpoint.WorkLedger {
	return fixpoint.WorkLedger{
		Runs:         1,
		Delta:        int64(delta),
		Touched:      int64(delta),
		Changed:      int64(affected),
		Aff:          int64(affected),
		RecomputeEst: int64(g.NumNodes() + g.NumEdges()),
	}
}

// CCView is the published snapshot of a connected-components maintainer.
type CCView struct {
	// Labels[v] is the minimum node id of v's (weakly) connected
	// component.
	Labels []int64 `json:"labels"`
}

type ccServeable struct{ inc *cc.Inc }

// CC adapts an IncCC maintainer.
func CC(inc *cc.Inc) Serveable { return &ccServeable{inc: inc} }

func (s *ccServeable) Algo() string        { return "cc" }
func (s *ccServeable) Graph() *graph.Graph { return s.inc.Graph() }
func (s *ccServeable) Apply(b graph.Batch) ApplyResult {
	return statsDelta(s.inc, s.inc.Graph(), len(b), func() int { return s.inc.Apply(b) })
}
func (s *ccServeable) Snapshot() any {
	return CCView{Labels: append([]int64(nil), s.inc.Labels()...)}
}
func (s *ccServeable) SetTracer(t fixpoint.Tracer) { s.inc.SetTracer(t) }

// SetWorkers and ParStats forward the parallel execution mode to the
// current inner maintainer.
func (s *ccServeable) SetWorkers(n int)            { s.inc.SetWorkers(n) }
func (s *ccServeable) ParStats() fixpoint.ParStats { return s.inc.ParStats() }

// ccState is the gob envelope of PersistState: labels plus the engine's
// timestamps and clock, which carry the anchor order <_C across a
// restart.
type ccState struct {
	Labels, TS []int64
	Clock      int64
}

func (s *ccServeable) PersistState(w io.Writer) error {
	labels, ts, clock := s.inc.ExportState()
	return gob.NewEncoder(w).Encode(ccState{Labels: labels, TS: ts, Clock: clock})
}
func (s *ccServeable) RestoreState(r io.Reader) error {
	var st ccState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	return s.inc.RestoreState(st.Labels, st.TS, st.Clock)
}
func (s *ccServeable) Recompute() { s.inc = cc.NewInc(s.inc.Graph()) }

// SimView is the published snapshot of a graph-simulation maintainer.
type SimView struct {
	// NQ is the pattern's node count.
	NQ int `json:"nq"`
	// Count is the number of (data node, pattern node) matches in the
	// maximum simulation.
	Count int `json:"count"`
	// Matches[u] lists the data nodes matching pattern node u.
	Matches [][]graph.NodeID `json:"matches"`
}

type simServeable struct{ inc *sim.Inc }

// Sim adapts an IncSim maintainer.
func Sim(inc *sim.Inc) Serveable { return &simServeable{inc: inc} }

func (s *simServeable) Algo() string                { return "sim" }
func (s *simServeable) Graph() *graph.Graph         { return s.inc.Graph() }
func (s *simServeable) SetTracer(t fixpoint.Tracer) { s.inc.SetTracer(t) }
func (s *simServeable) Apply(b graph.Batch) ApplyResult {
	return statsDelta(s.inc, s.inc.Graph(), len(b), func() int { return s.inc.Apply(b) })
}
func (s *simServeable) Snapshot() any {
	r := s.inc.Relation()
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

// simState is the gob envelope of PersistState: the match relation, the
// support counters, and the falsification timestamps — IncSim's
// auxiliary structure, which is what makes it only weakly deducible
// (§5.1).
type simState struct {
	R     []bool
	Cnt   []int32
	TS    []int64
	Clock int64
}

func (s *simServeable) PersistState(w io.Writer) error {
	r, cnt, ts, clock := s.inc.ExportState()
	return gob.NewEncoder(w).Encode(simState{R: r, Cnt: cnt, TS: ts, Clock: clock})
}
func (s *simServeable) RestoreState(r io.Reader) error {
	var st simState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	return s.inc.RestoreState(st.R, st.Cnt, st.TS, st.Clock)
}
func (s *simServeable) Recompute() { s.inc = sim.NewInc(s.inc.Graph(), s.inc.Pattern()) }

// DFSView is the published snapshot of a DFS maintainer: the canonical
// forest as preorder/postorder intervals plus parent pointers.
type DFSView struct {
	First  []int32        `json:"first"`
	Last   []int32        `json:"last"`
	Parent []graph.NodeID `json:"parent"`
}

type dfsServeable struct{ inc *dfs.Inc }

// DFS adapts an IncDFS maintainer.
func DFS(inc *dfs.Inc) Serveable { return &dfsServeable{inc: inc} }

func (s *dfsServeable) Algo() string        { return "dfs" }
func (s *dfsServeable) Graph() *graph.Graph { return s.inc.Graph() }
func (s *dfsServeable) Apply(b graph.Batch) ApplyResult {
	aff := s.inc.Apply(b)
	return ApplyResult{Affected: aff,
		Ledger: syntheticLedger(s.inc.Graph(), len(b), aff), HasLedger: true}
}
func (s *dfsServeable) Snapshot() any {
	t := s.inc.Tree()
	return DFSView{
		First:  append([]int32(nil), t.First...),
		Last:   append([]int32(nil), t.Last...),
		Parent: append([]graph.NodeID(nil), t.Parent...),
	}
}

// dfsState is the gob envelope of PersistState: the interval variables
// are IncDFS's complete incremental state — anchors and <_C are read off
// them directly (§5.2).
type dfsState struct {
	First, Last []int32
	Parent      []graph.NodeID
}

func (s *dfsServeable) PersistState(w io.Writer) error {
	t := s.inc.Tree()
	return gob.NewEncoder(w).Encode(dfsState{First: t.First, Last: t.Last, Parent: t.Parent})
}
func (s *dfsServeable) RestoreState(r io.Reader) error {
	var st dfsState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	return s.inc.RestoreState(st.First, st.Last, st.Parent)
}
func (s *dfsServeable) Recompute() { s.inc = dfs.NewInc(s.inc.Graph()) }

// LCCView is the published snapshot of a local-clustering-coefficient
// maintainer.
type LCCView struct {
	Deg []int32 `json:"deg"`
	Tri []int64 `json:"tri"`
	// Gamma[v] is the local clustering coefficient of v.
	Gamma []float64 `json:"gamma"`
}

type lccServeable struct{ inc *lcc.Inc }

// LCC adapts an IncLCC maintainer.
func LCC(inc *lcc.Inc) Serveable { return &lccServeable{inc: inc} }

func (s *lccServeable) Algo() string        { return "lcc" }
func (s *lccServeable) Graph() *graph.Graph { return s.inc.Graph() }
func (s *lccServeable) Apply(b graph.Batch) ApplyResult {
	aff := s.inc.Apply(b)
	return ApplyResult{Affected: aff,
		Ledger: syntheticLedger(s.inc.Graph(), len(b), aff), HasLedger: true}
}
func (s *lccServeable) Snapshot() any {
	r := s.inc.Result()
	v := LCCView{
		Deg:   append([]int32(nil), r.Deg...),
		Tri:   append([]int64(nil), r.Tri...),
		Gamma: make([]float64, len(r.Deg)),
	}
	for i := range v.Gamma {
		v.Gamma[i] = r.Gamma(graph.NodeID(i))
	}
	return v
}

// lccState is the gob envelope of PersistState: d_v and λ_v are IncLCC's
// complete state — it keeps no auxiliary structure (§5.3).
type lccState struct {
	Deg []int32
	Tri []int64
}

func (s *lccServeable) PersistState(w io.Writer) error {
	r := s.inc.Result()
	return gob.NewEncoder(w).Encode(lccState{Deg: r.Deg, Tri: r.Tri})
}
func (s *lccServeable) RestoreState(r io.Reader) error {
	var st lccState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	return s.inc.RestoreState(st.Deg, st.Tri)
}
func (s *lccServeable) Recompute() { s.inc = lcc.NewInc(s.inc.Graph()) }

// BCView is the published snapshot of a biconnectivity maintainer.
type BCView struct {
	// Articulation[v] reports whether v is an articulation point.
	Articulation []bool `json:"articulation"`
	// NumComps is the number of biconnected edge components.
	NumComps int `json:"num_comps"`
}

type bcServeable struct{ inc *bc.Inc }

// BC adapts an IncBC maintainer.
func BC(inc *bc.Inc) Serveable { return &bcServeable{inc: inc} }

func (s *bcServeable) Algo() string        { return "bc" }
func (s *bcServeable) Graph() *graph.Graph { return s.inc.Graph() }
func (s *bcServeable) Apply(b graph.Batch) ApplyResult {
	aff := s.inc.Apply(b)
	return ApplyResult{Affected: aff,
		Ledger: syntheticLedger(s.inc.Graph(), len(b), aff), HasLedger: true}
}
func (s *bcServeable) Snapshot() any {
	r := s.inc.Result()
	return BCView{
		Articulation: append([]bool(nil), r.Articulation...),
		NumComps:     r.NumComps(),
	}
}

// bcState is the gob envelope of PersistState: the articulation flags
// and the edge partition. Component ids survive the round trip so
// incremental repair after a restart keeps distinguishing restored
// components from freshly derived ones.
type bcState struct {
	Articulation []bool
	EdgeComp     map[[2]graph.NodeID]int32
}

func (s *bcServeable) PersistState(w io.Writer) error {
	r := s.inc.Result()
	return gob.NewEncoder(w).Encode(bcState{Articulation: r.Articulation, EdgeComp: r.EdgeComp})
}
func (s *bcServeable) RestoreState(r io.Reader) error {
	var st bcState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	return s.inc.RestoreState(st.Articulation, st.EdgeComp)
}
func (s *bcServeable) Recompute() { s.inc = bc.NewInc(s.inc.Graph()) }
