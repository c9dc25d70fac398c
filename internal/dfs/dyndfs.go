package dfs

import "incgraph/internal/graph"

// DynDFS is the fully dynamic DFS competitor in the style of Yang et al.
// (PVLDB 2019): it maintains *some* valid DFS tree (not the canonical
// one), processing unit updates one at a time. Updates that provably
// preserve validity are absorbed in O(1):
//
//   - inserting (u, v) when last[u] > first[v] creates a back, forward or
//     leftward cross edge, all of which a DFS tree tolerates;
//   - deleting a non-tree edge.
//
// Other updates replay the traversal suffix from the affected anchor and
// then re-verify the forward-cross invariant over the suffix, rebuilding
// from scratch when a previously absorbed edge has become violating. This
// makes DynDFS competitive on insertion-heavy unit streams but weak on
// batches — the shape the paper reports (IncDFS 4.4× faster at 1%
// updates).
type DynDFS struct {
	g    *graph.Graph
	tree *Tree
}

// NewDynDFS runs the batch DFS and returns the competitor.
func NewDynDFS(g *graph.Graph) *DynDFS {
	return &DynDFS{g: g, tree: Run(g)}
}

// Graph returns the maintained graph.
func (d *DynDFS) Graph() *graph.Graph { return d.g }

// Tree returns the maintained DFS tree.
func (d *DynDFS) Tree() *Tree { return d.tree }

// Apply processes the batch one unit update at a time, DynDFS's native
// interface. It returns the total number of recomputed intervals.
func (d *DynDFS) Apply(b graph.Batch) int {
	total := 0
	for _, u := range b {
		total += d.applyUnit(u)
	}
	return total
}

func (d *DynDFS) applyUnit(up graph.Update) int {
	oldN := len(d.tree.First)
	switch up.Kind {
	case graph.InsertEdge:
		if !d.g.InsertEdge(up.From, up.To, up.W) {
			return 0
		}
		if d.g.NumNodes() == oldN && d.absorbable(up.From, up.To) {
			return 0
		}
		return d.replayChecked(up)
	case graph.DeleteEdge:
		if !d.g.DeleteEdge(up.From, up.To) {
			return 0
		}
		tree := d.tree.Parent[up.To] == up.From
		if !d.g.Directed() {
			tree = tree || d.tree.Parent[up.From] == up.To
		}
		if !tree {
			return 0 // deleting a non-tree edge never breaks validity
		}
		return d.replayChecked(up)
	}
	return 0
}

// absorbable reports whether the new edge (and its mirror for undirected
// graphs) is tolerated by the current tree.
func (d *DynDFS) absorbable(u, v graph.NodeID) bool {
	ok := d.tree.Last[u] > d.tree.First[v]
	if !d.g.Directed() {
		ok = ok && d.tree.Last[v] > d.tree.First[u]
	}
	return ok
}

// replayChecked replays the suffix from the update's anchor and verifies
// the invariant; on violation (an earlier absorbed edge turned into a
// forward cross) it rebuilds from scratch.
func (d *DynDFS) replayChecked(up graph.Update) int {
	oldN := len(d.tree.First)
	tstar := int32(2*oldN + 1)
	consider := func(u graph.NodeID) {
		if int(u) < oldN && d.tree.First[u] > 0 && d.tree.First[u]+1 < tstar {
			tstar = d.tree.First[u] + 1
		}
	}
	consider(up.From)
	if !d.g.Directed() {
		consider(up.To)
	}
	affected := replayFrom(d.g, d.g.AppendOutSorted, d.tree, tstar)
	if !d.valid() {
		d.tree = Run(d.g)
		return d.g.NumNodes()
	}
	return affected
}

// valid re-checks the forward-cross invariant over all edges: replaying a
// suffix can move a target's first past the last of an absorbed prefix
// edge, so the scan cannot be restricted to the suffix.
func (d *DynDFS) valid() bool {
	for v := 0; v < d.g.NumNodes(); v++ {
		for _, e := range d.g.Out(graph.NodeID(v)) {
			if d.tree.Last[v] < d.tree.First[e.To] {
				return false
			}
		}
	}
	return true
}
