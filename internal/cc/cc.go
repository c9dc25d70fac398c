// Package cc implements connected components: the batch fixpoint algorithm
// CC_fp (min-label propagation, Example 2 of the paper), the weakly
// deducible incremental algorithm IncCC (Example 5, timestamps via the
// fixpoint engine), the naive deducible variant of Example 2 used as an
// ablation, a union-find batch baseline, and the DynCC competitor built on
// fully dynamic connectivity (Holm et al.).
//
// Directed graphs are treated as their underlying undirected graphs
// (weakly connected components). Components are identified by the minimum
// node id they contain.
package cc

import (
	"incgraph/internal/dynconn"
	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
)

// Components is the BFS reference implementation used by tests.
func Components(g *graph.Graph) []int64 {
	n := g.NumNodes()
	lab := make([]int64, n)
	for i := range lab {
		lab[i] = -1
	}
	var stack []graph.NodeID
	for s := 0; s < n; s++ {
		if lab[s] >= 0 {
			continue
		}
		lab[s] = int64(s)
		stack = append(stack[:0], graph.NodeID(s))
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			visit := func(y graph.NodeID) {
				if lab[y] < 0 {
					lab[y] = int64(s)
					stack = append(stack, y)
				}
			}
			for _, e := range g.Out(x) {
				visit(e.To)
			}
			if g.Directed() {
				for _, e := range g.In(x) {
					visit(e.To)
				}
			}
		}
	}
	return lab
}

// UnionFind computes components with a weighted union-find, the fastest
// batch baseline.
func UnionFind(g *graph.Graph) []int64 {
	n := g.NumNodes()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	g.Edges(func(u, v graph.NodeID, w int64) {
		ru, rv := find(int32(u)), find(int32(v))
		if ru != rv {
			if ru < rv {
				parent[rv] = ru
			} else {
				parent[ru] = rv
			}
		}
	})
	lab := make([]int64, n)
	// With min-id union direction, each root is already its component's
	// minimum id.
	for i := range lab {
		lab[i] = int64(find(int32(i)))
	}
	return lab
}

// Instance is the CC instantiation of the fixpoint model (Example 2): one
// variable per node holding a component id, f_xv = min({id_v} ∪ Y_xv) over
// the neighbors. It is contracting and monotonic under the order on ids.
//
// All adjacency reads go through Flat, the CSR+overlay view of G, which
// also makes the engine's row-based drain (fixpoint.UniformRelaxer)
// available. Whoever mutates G stages the same updates into Flat.
type Instance struct {
	G    *graph.Graph
	Flat *graph.Flat
}

// NewInstance builds an instance over g with a fresh flat view.
func NewInstance(g *graph.Graph) *Instance { return &Instance{G: g, Flat: graph.NewFlat(g)} }

// NumVars returns one variable per node.
func (c *Instance) NumVars() int { return c.G.NumNodes() }

// Bottom returns the node's own id, the initial component label.
func (c *Instance) Bottom(x fixpoint.Var) int64 { return int64(x) }

// Less orders labels: smaller ids win.
func (c *Instance) Less(a, b int64) bool { return a < b }

// Equal reports label equality.
func (c *Instance) Equal(a, b int64) bool { return a == b }

func (c *Instance) neighbors(x fixpoint.Var, yield func(fixpoint.Var)) {
	v := graph.NodeID(x)
	c.Flat.EachOut(v, func(u graph.NodeID, _ int64) { yield(fixpoint.Var(u)) })
	if c.G.Directed() {
		c.Flat.EachIn(v, func(u graph.NodeID, _ int64) { yield(fixpoint.Var(u)) })
	}
}

// Inputs yields the (undirected) neighbors of x.
func (c *Instance) Inputs(x fixpoint.Var, yield func(fixpoint.Var)) { c.neighbors(x, yield) }

// Dependents equals Inputs: the dependency relation is symmetric.
func (c *Instance) Dependents(x fixpoint.Var, yield func(fixpoint.Var)) { c.neighbors(x, yield) }

// Update evaluates f_x: the minimum of the node's id and neighbor labels.
// The meet over the dependent row is branch-free (fixpoint.MinInt64);
// labels are node ids, far from the overflow bound.
func (c *Instance) Update(x fixpoint.Var, get func(fixpoint.Var) int64) int64 {
	v := graph.NodeID(x)
	best := c.flatMeet(v, int64(x), get, false)
	if c.G.Directed() {
		best = c.flatMeet(v, best, get, true)
	}
	return best
}

// flatMeet folds get over one direction of v's flat adjacency.
func (c *Instance) flatMeet(v graph.NodeID, best int64, get func(fixpoint.Var) int64, in bool) int64 {
	var ts []graph.NodeID
	var dead []bool
	var extra []graph.Edge
	if in {
		ts, _, dead, extra = c.Flat.InSpans(v)
	} else {
		ts, _, dead, extra = c.Flat.OutSpans(v)
	}
	if dead == nil {
		for _, u := range ts {
			best = fixpoint.MinInt64(best, get(fixpoint.Var(u)))
		}
	} else {
		for k, u := range ts {
			if !dead[k] {
				best = fixpoint.MinInt64(best, get(fixpoint.Var(u)))
			}
		}
	}
	for _, e := range extra {
		best = fixpoint.MinInt64(best, get(fixpoint.Var(e.To)))
	}
	return best
}

// Seeds yields every variable: any node's statement may be false at start.
func (c *Instance) Seeds(yield func(fixpoint.Var)) {
	for x := 0; x < c.G.NumNodes(); x++ {
		yield(fixpoint.Var(x))
	}
}

// RelaxOut emits min-label candidates to the neighbors, the meet-form
// fast path of the engine.
func (c *Instance) RelaxOut(x fixpoint.Var, xv int64, emit func(fixpoint.Var, int64)) {
	c.neighbors(x, func(y fixpoint.Var) { emit(y, xv) })
}

// DependentRow appends x's neighbors to buf (fixpoint.UniformRelaxer):
// min-label propagation emits the same candidate everywhere, so the
// engine's sequential drain installs it along this row with no per-edge
// closure. The row visits exactly what RelaxOut emits to, in the same
// order.
func (c *Instance) DependentRow(x fixpoint.Var, buf []fixpoint.Var) []fixpoint.Var {
	v := graph.NodeID(x)
	ts, ws, dead, extra := c.Flat.OutSpans(v)
	buf = appendRow(buf, ts, ws, dead, extra)
	if c.G.Directed() {
		ts, ws, dead, extra = c.Flat.InSpans(v)
		buf = appendRow(buf, ts, ws, dead, extra)
	}
	return buf
}

// appendRow appends the live targets of one flat span set to buf.
func appendRow(buf []fixpoint.Var, ts []graph.NodeID, _ []int64, dead []bool, extra []graph.Edge) []fixpoint.Var {
	if dead == nil {
		for _, u := range ts {
			buf = append(buf, fixpoint.Var(u))
		}
	} else {
		for k, u := range ts {
			if !dead[k] {
				buf = append(buf, fixpoint.Var(u))
			}
		}
	}
	for _, e := range extra {
		buf = append(buf, fixpoint.Var(e.To))
	}
	return buf
}

// OutDegree reports the number of dependency edges leaving x — its
// (undirected) neighbor count — feeding ‖AFF‖ in the engine's work ledger
// (see fixpoint.OutDegreer). O(1): adjacency slice lengths.
func (c *Instance) OutDegree(x fixpoint.Var) int64 {
	v := graph.NodeID(x)
	d := int64(len(c.G.Out(v)))
	if c.G.Directed() {
		d += int64(len(c.G.In(v)))
	}
	return d
}

// CCfp runs the batch fixpoint algorithm and returns the labels.
func CCfp(g *graph.Graph) []int64 {
	eng := fixpoint.New[int64](NewInstance(g), fixpoint.PriorityOrder)
	eng.Run()
	return eng.State().Val
}

// Inc is the weakly deducible incremental algorithm IncCC (Example 5). It
// keeps the timestamps recorded by the engine to derive the order <_C and
// anchor sets, so that deleting an edge inside a component inspects only
// the truly affected region rather than both sides.
//
// An Inc is not goroutine-safe: it (and the graph it owns) must be
// driven by a single writer goroutine making every call, reads included —
// Labels aliases engine state that Apply mutates. Concurrent serving
// goes through internal/serve, which gives each maintainer one apply
// loop and publishes immutable snapshots to readers.
type Inc struct {
	g       *graph.Graph
	flat    *graph.Flat
	eng     *fixpoint.Engine[int64]
	arena   fixpoint.ScopeArena
	pending graph.Batch
}

// NewInc computes the initial fixpoint and returns the algorithm.
func NewInc(g *graph.Graph) *Inc {
	inst := NewInstance(g)
	eng := fixpoint.New[int64](inst, fixpoint.PriorityOrder)
	eng.Run()
	return &Inc{g: g, flat: inst.Flat, eng: eng}
}

// Graph returns the maintained graph.
func (i *Inc) Graph() *graph.Graph { return i.g }

// Labels returns the current component labels, aliased to internal state.
func (i *Inc) Labels() []int64 { return i.eng.State().Val }

// Stats exposes the engine's inspection counters.
func (i *Inc) Stats() fixpoint.Stats { return i.eng.State().Stats }

// ExportState copies out the engine state a durability checkpoint
// persists: labels, determination timestamps, and the logical clock. The
// timestamps are IncCC's auxiliary structure — the order <_C the anchor
// analysis reads — so restoring them preserves incremental behaviour
// across a restart, not just the answers.
func (i *Inc) ExportState() (labels, ts []int64, clock int64) {
	st := i.eng.State()
	return append([]int64(nil), st.Val...), append([]int64(nil), st.TS...), st.Clock()
}

// RestoreState installs state exported from a checkpoint of the same
// graph.
func (i *Inc) RestoreState(labels, ts []int64, clock int64) error {
	return i.eng.Restore(labels, ts, clock)
}

// SetTracer installs the engine's span hook (see fixpoint.Tracer); it
// must be called from the single writer goroutine that drives Apply.
func (i *Inc) SetTracer(t fixpoint.Tracer) { i.eng.SetTracer(t) }

// SetWorkers sets the engine's worker count for parallel round drains
// (see fixpoint.Engine.SetWorkers): n >= 2 partitions each propagation
// round's frontier across a reusable pool, n <= 1 restores the
// sequential path. Single-writer contract: call only between Applies.
func (i *Inc) SetWorkers(n int) { i.eng.SetWorkers(n) }

// Workers returns the engine's configured worker count (1 = sequential).
func (i *Inc) Workers() int { return i.eng.Workers() }

// ParStats returns the engine's cumulative parallel-drain counters;
// zero-valued while the engine runs sequentially.
func (i *Inc) ParStats() fixpoint.ParStats { return i.eng.ParStats() }

// Close releases the engine's worker pool, if any; the maintainer stays
// usable (the pool respawns lazily on the next parallel round).
func (i *Inc) Close() { i.eng.Close() }

// Apply computes G ⊕ ΔG and incrementally repairs the labels. It returns
// |H⁰|.
//
// Per-update feasibility analysis (§4): inserted edges only improve
// labels, so their endpoints keep feasible values and skip h's revision
// queue, going straight into H⁰ for the resumed step function. Deletion
// endpoints enter h's queue; h's timestamp-based anchor evaluation then
// establishes that usually only the later-determined endpoint is truly
// reset (Example 5).
func (i *Inc) Apply(b graph.Batch) int {
	i.Stage(b)
	return i.Repair()
}

// Stage materializes G ⊕ ΔG without repairing the labels, letting
// benchmarks time Repair separately from the graph mutation every method
// needs.
func (i *Inc) Stage(b graph.Batch) {
	applied := i.g.Apply(b.Net(i.g.Directed()))
	i.pending = append(i.pending, applied...)
	i.eng.Grow()
	i.flat.Stage(i.g, applied)
	i.flat.MaybeCompact(i.g)
}

// Flat returns the maintainer's flat adjacency view, for observability
// of overlay size and compaction counts.
func (i *Inc) Flat() *graph.Flat { return i.flat }

// Repair runs the incremental algorithm over the staged updates.
func (i *Inc) Repair() int {
	applied := i.pending
	i.pending = i.pending[:0]
	a := &i.arena
	a.Begin(i.g.NumNodes())
	for _, u := range applied {
		switch u.Kind {
		case graph.InsertEdge:
			// Insertions only improve labels: re-propagating from both
			// endpoints relaxes the new edge in whichever direction the
			// smaller label flows, even when deletions in the same batch
			// relabel either side during h.
			a.Seed(fixpoint.Var(u.From))
			a.Seed(fixpoint.Var(u.To))
		case graph.DeleteEdge:
			a.Touch(fixpoint.Var(u.From), true)
			a.Touch(fixpoint.Var(u.To), true)
		}
	}
	return len(i.eng.IncrementalRunDelta(a.Touched(), a.Seeds()))
}

// IncNaive is the deducible incremental algorithm of Example 2: it marks
// as potentially affected (PE) every variable reachable from ΔG through
// input sets, resets all of them to their initial values, and re-runs the
// step function. Correct by Theorem 1 but not relatively bounded — a unit
// deletion inside a large component recomputes the whole component — it
// serves as the ablation quantifying what timestamps buy.
type IncNaive struct {
	g    *graph.Graph
	inst *Instance
	eng  *fixpoint.Engine[int64]
}

// NewIncNaive computes the initial fixpoint and returns the algorithm.
func NewIncNaive(g *graph.Graph) *IncNaive {
	inst := NewInstance(g)
	eng := fixpoint.New[int64](inst, fixpoint.PriorityOrder)
	eng.Run()
	return &IncNaive{g: g, inst: inst, eng: eng}
}

// Graph returns the maintained graph.
func (i *IncNaive) Graph() *graph.Graph { return i.g }

// Labels returns the current component labels.
func (i *IncNaive) Labels() []int64 { return i.eng.State().Val }

// Apply computes G ⊕ ΔG, expands the PE closure, resets it, and resumes
// the step function. It returns the number of PE variables.
func (i *IncNaive) Apply(b graph.Batch) int {
	applied := i.g.Apply(b.Net(i.g.Directed()))
	i.eng.Grow()
	i.inst.Flat.Stage(i.g, applied)
	i.inst.Flat.MaybeCompact(i.g)
	st := i.eng.State()
	pe := make(map[fixpoint.Var]bool, 2*len(applied))
	var queue []fixpoint.Var
	add := func(x fixpoint.Var) {
		if !pe[x] {
			pe[x] = true
			queue = append(queue, x)
		}
	}
	for _, u := range applied {
		add(fixpoint.Var(u.From))
		add(fixpoint.Var(u.To))
	}
	// PE closure: any variable whose input set contains a PE variable.
	for len(queue) > 0 {
		x := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		i.inst.Dependents(x, add)
	}
	scope := make([]fixpoint.Var, 0, len(pe))
	for x := range pe {
		st.Val[x] = i.inst.Bottom(x)
		scope = append(scope, x)
	}
	i.eng.ResumeFrom(scope)
	return len(pe)
}

// DynCC is the competitor: fully dynamic connectivity (Holm et al. [27])
// fed one unit update at a time, its native interface — the behaviour the
// paper exploits to show that batch updates favour the incrementalized
// algorithms.
type DynCC struct {
	g  *graph.Graph
	dc *dynconn.DynConn
}

// NewDynCC builds the connectivity structure for g.
func NewDynCC(g *graph.Graph) *DynCC {
	dc := dynconn.New(g.NumNodes())
	g.Edges(func(u, v graph.NodeID, w int64) {
		dc.Insert(int32(u), int32(v))
	})
	return &DynCC{g: g, dc: dc}
}

// Graph returns the maintained graph.
func (d *DynCC) Graph() *graph.Graph { return d.g }

// Apply processes each unit update individually through the dynamic
// structure.
func (d *DynCC) Apply(b graph.Batch) int {
	for _, u := range b {
		switch u.Kind {
		case graph.InsertEdge:
			if d.g.InsertEdge(u.From, u.To, u.W) {
				d.dc.Grow(d.g.NumNodes())
				d.dc.Insert(int32(u.From), int32(u.To))
			}
		case graph.DeleteEdge:
			if d.g.DeleteEdge(u.From, u.To) {
				d.dc.Delete(int32(u.From), int32(u.To))
			}
		}
	}
	return 0
}

// Labels extracts min-id component labels for comparison with the
// fixpoint algorithms.
func (d *DynCC) Labels() []int64 {
	raw := d.dc.Labels()
	out := make([]int64, len(raw))
	for i, l := range raw {
		out[i] = int64(l)
	}
	return out
}

// Components returns the number of connected components.
func (d *DynCC) Components() int { return d.dc.Components() }
