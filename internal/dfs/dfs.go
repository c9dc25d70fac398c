// Package dfs implements depth-first search (§5.2 of the paper): the
// batch fixpoint algorithm DFS_fp producing the interval status variables
// x_v = [v.first, v.last], the deduced incremental algorithm IncDFS, and
// the DynDFS competitor (Yang et al. style validity-preserving dynamic
// DFS).
//
// As in the paper, a virtual root connected to every node anchors the
// traversal, so every node carries an interval. Determinism (needed for
// the correctness equation Q(G ⊕ ΔG) = Q(G) ⊕ ΔO) comes from a canonical
// neighbor order: smaller node ids first, with the virtual root
// enumerating 0..n-1. Under that rule the DFS tree, preorder and
// postorder are unique functions of the graph.
//
// IncDFS exploits the anchor structure of DFS_fp: the anchor set of x_v is
// its parent, and <_C is the order of first-timestamps. An edge update
// with source u can first influence the traversal at time first[u], so
// every event before t* = min over changed sources of first[u] is reused
// verbatim and the traversal is resumed from the stack state at t*. The
// recomputed suffix is exactly the affected area AFF of DFS_fp — large
// for DFS, as the paper observes (crossover near |ΔG| = 4%|G|).
package dfs

import (
	"fmt"
	"sort"

	"incgraph/internal/graph"
)

// Tree is the output of a DFS: for every node its preorder/postorder
// interval and its tree parent (-1 for children of the virtual root).
// Timestamps are 1-based; a pair of events is spent per node.
type Tree struct {
	First, Last []int32
	Parent      []graph.NodeID
}

// clone deep-copies the tree.
func (t *Tree) clone() *Tree {
	return &Tree{
		First:  append([]int32(nil), t.First...),
		Last:   append([]int32(nil), t.Last...),
		Parent: append([]graph.NodeID(nil), t.Parent...),
	}
}

// Equal reports whether two trees are identical.
func (t *Tree) Equal(o *Tree) bool {
	if len(t.First) != len(o.First) {
		return false
	}
	for i := range t.First {
		if t.First[i] != o.First[i] || t.Last[i] != o.Last[i] || t.Parent[i] != o.Parent[i] {
			return false
		}
	}
	return true
}

// IsValid verifies that the tree is a legal DFS forest of g: intervals
// properly nested, parents consistent with tree edges, and the DFS
// invariant that no edge jumps forward across finished subtrees
// (last[u] < first[v] for an edge (u, v) is the forbidden forward-cross
// of §5.2).
func (t *Tree) IsValid(g *graph.Graph) bool {
	n := g.NumNodes()
	if len(t.First) != n {
		return false
	}
	for v := 0; v < n; v++ {
		if t.First[v] <= 0 || t.Last[v] <= t.First[v] {
			return false
		}
		if p := t.Parent[v]; p >= 0 {
			if !g.HasEdge(p, graph.NodeID(v)) {
				return false
			}
			// Child interval nested in parent interval.
			if !(t.First[p] < t.First[v] && t.Last[v] < t.Last[p]) {
				return false
			}
		}
	}
	ok := true
	for u := 0; u < n && ok; u++ {
		for _, e := range g.Out(graph.NodeID(u)) {
			if t.Last[u] < t.First[e.To] {
				ok = false
				break
			}
		}
	}
	return ok
}

// Run computes the canonical DFS of g, the batch algorithm DFS_fp.
func Run(g *graph.Graph) *Tree {
	t := &Tree{
		First:  make([]int32, g.NumNodes()),
		Last:   make([]int32, g.NumNodes()),
		Parent: make([]graph.NodeID, g.NumNodes()),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	replayFrom(g, g.AppendOutSorted, t, 1)
	return t
}

// frame is one open node on the DFS stack. Its canonical neighbor
// enumeration lives in the replay arena: the window arena[lo:hi], with i
// the cursor. Indices are absolute so the arena may be reallocated while
// frames are open.
type frame struct {
	v         graph.NodeID
	lo, i, hi int32
}

// nbrFunc appends v's neighbor ids to buf in ascending order and returns
// the extended slice — the canonical enumeration order of §5.2. The two
// implementations are graph.Graph.AppendOutSorted (adjacency lists, for
// the batch run) and graph.Flat.AppendOutSorted (CSR base + overlay
// tail, for the incremental one).
type nbrFunc func(v graph.NodeID, buf []graph.NodeID) []graph.NodeID

// replayFrom discards every event at time >= tstar and re-runs the
// traversal from the stack state at tstar, reading neighbors through nb.
// replayFrom(g, nb, t, 1) is a full batch run. It returns the number of
// nodes whose intervals were (re)computed, the affected-area measure.
func replayFrom(g *graph.Graph, nb nbrFunc, t *Tree, tstar int32) int {
	n := g.NumNodes()
	// Grow state for vertex insertions.
	for len(t.First) < n {
		t.First = append(t.First, 0)
		t.Last = append(t.Last, 0)
		t.Parent = append(t.Parent, -1)
	}
	// Classify nodes: closed prefix (kept), open stack (first kept, last
	// recomputed), affected suffix (reset).
	var open []graph.NodeID
	affected := 0
	for v := 0; v < n; v++ {
		switch {
		case t.First[v] > 0 && t.First[v] < tstar && t.Last[v] >= tstar:
			open = append(open, graph.NodeID(v))
			t.Last[v] = 0
		case t.First[v] >= tstar || t.First[v] == 0:
			t.First[v], t.Last[v], t.Parent[v] = 0, 0, -1
			affected++
		}
	}
	sort.Slice(open, func(i, j int) bool { return t.First[open[i]] < t.First[open[j]] })

	clock := tstar - 1
	// One arena holds every open frame's neighbor window; frames pop in
	// LIFO order, so truncating to f.lo on pop reclaims the window.
	var stack []frame
	arena := make([]graph.NodeID, 0, 64)
	push := func(v graph.NodeID) {
		lo := int32(len(arena))
		arena = nb(v, arena)
		stack = append(stack, frame{v: v, lo: lo, i: lo, hi: int32(len(arena))})
	}
	for _, w := range open {
		push(w)
	}
	step := func() {
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			descended := false
			for f.i < f.hi {
				w := arena[f.i]
				f.i++
				if t.First[w] == 0 {
					clock++
					t.First[w] = clock
					t.Parent[w] = f.v
					push(w)
					descended = true
					break
				}
			}
			if !descended {
				clock++
				t.Last[f.v] = clock
				arena = arena[:f.lo]
				stack = stack[:len(stack)-1]
			}
		}
	}
	step()
	// Virtual root enumerates remaining nodes in id order.
	for s := 0; s < n; s++ {
		if t.First[s] == 0 {
			clock++
			t.First[s] = clock
			t.Parent[s] = -1
			push(graph.NodeID(s))
			step()
		}
	}
	return affected
}

// Inc is the deduced incremental algorithm IncDFS. It is deducible from
// DFS_fp: the parent anchors and the order <_C are read off the interval
// status variables, no timestamps beyond them are needed.
//
// An Inc is not goroutine-safe: it (and the graph it owns) must be
// driven by a single writer goroutine making every call, reads included —
// Tree aliases state that Apply mutates. Concurrent serving goes through
// internal/serve, which gives each maintainer one apply loop and
// publishes immutable snapshots to readers.
type Inc struct {
	g       *graph.Graph
	flat    *graph.Flat
	nb      nbrFunc
	tree    *Tree
	pending graph.Batch
}

// NewInc runs the batch DFS and returns the incremental algorithm.
func NewInc(g *graph.Graph) *Inc {
	i := &Inc{g: g, flat: graph.NewFlat(g), tree: Run(g)}
	i.nb = i.flat.AppendOutSorted
	return i
}

// Flat returns the maintained flat adjacency view.
func (i *Inc) Flat() *graph.Flat { return i.flat }

// Graph returns the maintained graph.
func (i *Inc) Graph() *graph.Graph { return i.g }

// Tree returns the maintained DFS tree (aliased, do not mutate).
func (i *Inc) Tree() *Tree { return i.tree }

// RestoreState overwrites the maintained tree with one exported from a
// checkpoint of the same graph. The interval variables are IncDFS's
// complete incremental state: the parent anchors and the order <_C are
// read off them directly. The slices are copied.
func (i *Inc) RestoreState(first, last []int32, parent []graph.NodeID) error {
	n := i.g.NumNodes()
	if len(first) != n || len(last) != n || len(parent) != n {
		return fmt.Errorf("dfs: restore of %d/%d/%d intervals into graph with %d nodes",
			len(first), len(last), len(parent), n)
	}
	i.tree = &Tree{
		First:  append([]int32(nil), first...),
		Last:   append([]int32(nil), last...),
		Parent: append([]graph.NodeID(nil), parent...),
	}
	return nil
}

// Apply computes G ⊕ ΔG and repairs the DFS tree by replaying the
// traversal from the earliest affected anchor. It returns the number of
// recomputed intervals.
func (i *Inc) Apply(b graph.Batch) int {
	i.Stage(b)
	return i.Repair()
}

// Stage materializes G ⊕ ΔG without repairing the tree, letting
// benchmarks time Repair separately from the graph mutation every method
// needs.
func (i *Inc) Stage(b graph.Batch) {
	applied := i.g.Apply(b.Net(i.g.Directed()))
	i.pending = append(i.pending, applied...)
	i.flat.Stage(i.g, applied)
	i.flat.MaybeCompact(i.g)
}

// Repair replays the traversal suffix for the staged updates.
func (i *Inc) Repair() int {
	applied := i.pending
	i.pending = nil
	oldN := len(i.tree.First)
	if len(applied) == 0 && i.g.NumNodes() == oldN {
		return 0
	}
	end := int32(2*oldN + 1)
	tstar := end
	// The traversal can diverge only strictly after the changed source's
	// visit event, so first[u]+1 is the earliest affected time.
	consider := func(u graph.NodeID) {
		if int(u) < oldN && i.tree.First[u] > 0 && i.tree.First[u]+1 < tstar {
			tstar = i.tree.First[u] + 1
		}
	}
	considerAt := func(t int32) {
		if t > 0 && t < tstar {
			tstar = t
		}
	}
	old := func(v graph.NodeID) bool { return int(v) < oldN }
	for _, up := range applied {
		switch up.Kind {
		case graph.InsertEdge:
			if i.g.Directed() {
				// If the target was already visited before the source
				// even started, the canonical traversal skips the new
				// edge: nothing diverges.
				if old(up.From) && old(up.To) && i.tree.First[up.To] < i.tree.First[up.From] {
					continue
				}
				consider(up.From)
			} else {
				consider(up.From)
				consider(up.To)
			}
		case graph.DeleteEdge:
			// Removing a non-tree edge never changes the canonical
			// traversal: its consult always found the target visited.
			fromTree := old(up.To) && i.tree.Parent[up.To] == up.From
			toTree := !i.g.Directed() && old(up.From) && i.tree.Parent[up.From] == up.To
			if fromTree {
				considerAt(i.tree.First[up.To]) // divergence at the child's visit
			}
			if toTree {
				considerAt(i.tree.First[up.From])
			}
		}
	}
	return replayFrom(i.g, i.nb, i.tree, tstar)
}

// IncUnit is IncDFS_n: the unit-update variant.
type IncUnit struct{ *Inc }

// NewIncUnit builds the unit-update variant.
func NewIncUnit(g *graph.Graph) *IncUnit { return &IncUnit{NewInc(g)} }

// Apply processes each unit update as its own batch.
func (i *IncUnit) Apply(b graph.Batch) int {
	total := 0
	for _, u := range b {
		total += i.Inc.Apply(graph.Batch{u})
	}
	return total
}
