// Package bc implements biconnectivity (BC), the sixth query class the
// paper names as a fixpoint algorithm (§3): articulation points and
// biconnected components of an undirected graph.
//
// The batch algorithm is the classic lowpoint DFS (Hopcroft–Tarjan). The
// deduced incremental algorithm Inc follows the framework's PE discipline
// at connected-component granularity: a batch ΔG marks the components it
// touches as potentially affected and re-derives lowpoints only there,
// reusing every other component's results. This is the coarse deducible
// incrementalization of Theorem 1 — biconnectivity is globally brittle
// within a component (one inserted edge can clear articulation points
// along an entire cycle), so the touched component is the natural affected
// area for BC.
package bc

import (
	"fmt"

	"incgraph/internal/graph"
)

// Result describes the biconnectivity structure: per-node articulation
// flags and a biconnected-component id per edge. Ids are opaque: distinct
// ids mean distinct components, but their numeric values depend on the
// computation history — compare results with Equivalent.
type Result struct {
	// Articulation[v] reports whether removing v disconnects its
	// connected component.
	Articulation []bool
	// EdgeComp maps each edge (canonical min,max endpoints) to its
	// biconnected component id.
	EdgeComp map[[2]graph.NodeID]int32
}

func key(u, v graph.NodeID) [2]graph.NodeID {
	if u > v {
		u, v = v, u
	}
	return [2]graph.NodeID{u, v}
}

// NumComps returns the number of biconnected components.
func (r *Result) NumComps() int {
	seen := make(map[int32]bool)
	for _, c := range r.EdgeComp {
		seen[c] = true
	}
	return len(seen)
}

// Equivalent reports whether two results describe the same biconnectivity
// structure: identical articulation flags and edge partitions (up to a
// bijective renaming of component ids).
func (r *Result) Equivalent(o *Result) bool {
	if len(r.Articulation) != len(o.Articulation) || len(r.EdgeComp) != len(o.EdgeComp) {
		return false
	}
	for i := range r.Articulation {
		if r.Articulation[i] != o.Articulation[i] {
			return false
		}
	}
	fwd := make(map[int32]int32)
	bwd := make(map[int32]int32)
	for k, a := range r.EdgeComp {
		b, ok := o.EdgeComp[k]
		if !ok {
			return false
		}
		if m, seen := fwd[a]; seen && m != b {
			return false
		}
		if m, seen := bwd[b]; seen && m != a {
			return false
		}
		fwd[a] = b
		bwd[b] = a
	}
	return true
}

// Run computes the biconnectivity structure of an undirected graph with
// an iterative lowpoint DFS in canonical order (smallest-id roots and
// neighbors first).
func Run(g *graph.Graph) *Result {
	n := g.NumNodes()
	r := &Result{
		Articulation: make([]bool, n),
		EdgeComp:     make(map[[2]graph.NodeID]int32, g.NumEdges()),
	}
	st := newLowpointState(n)
	st.epoch = 1
	for s := 0; s < n; s++ {
		if !st.visited(graph.NodeID(s)) {
			st.runComponent(g.AppendOutSorted, graph.NodeID(s), r)
		}
	}
	return r
}

// lowpointState carries the DFS bookkeeping. It is reusable across rounds
// via epoch stamping, so the incremental algorithm re-runs single
// components without clearing global arrays.
type lowpointState struct {
	num, low []int32
	stamp    []int64
	epoch    int64
	clock    int32
	comp     int32 // monotonic component-id allocator
	estack   [][2]graph.NodeID
	// arena holds the sorted neighbor lists of every frame on the DFS
	// stack, stacked end to end; frames reference [lo, hi) windows and the
	// window is truncated when its frame pops. One growable backing array
	// thus replaces a per-visited-node allocate-and-sort.
	arena  []graph.NodeID
	fstack []bcFrame
}

func newLowpointState(n int) *lowpointState {
	return &lowpointState{
		num:   make([]int32, n),
		low:   make([]int32, n),
		stamp: make([]int64, n),
	}
}

func (st *lowpointState) visited(v graph.NodeID) bool { return st.stamp[v] == st.epoch }

func (st *lowpointState) discover(v graph.NodeID, r *Result) {
	st.clock++
	st.stamp[v] = st.epoch
	st.num[v] = st.clock
	st.low[v] = st.clock
	r.Articulation[v] = false
}

func (st *lowpointState) grow(n int) {
	for len(st.num) < n {
		st.num = append(st.num, 0)
		st.low = append(st.low, 0)
		st.stamp = append(st.stamp, 0)
	}
}

// nbrFunc appends v's neighbors to buf in ascending id order and returns
// the extended slice — the DFS's only adjacency dependency, satisfied by
// the graph's lists in the batch run and by the flat view in the
// incremental one (both via AppendOutSorted).
type nbrFunc func(v graph.NodeID, buf []graph.NodeID) []graph.NodeID

// bcFrame is one DFS stack frame; [lo, hi) windows the state's neighbor
// arena, i is the cursor within that window.
type bcFrame struct {
	v, parent graph.NodeID
	lo, i, hi int32
	children  int
}

// runComponent explores the connected component of s, filling r's
// articulation flags and edge components for exactly that component.
func (st *lowpointState) runComponent(nb nbrFunc, s graph.NodeID, r *Result) {
	st.discover(s, r)
	st.estack = st.estack[:0]
	st.arena = nb(s, st.arena[:0])
	st.fstack = append(st.fstack[:0], bcFrame{v: s, parent: -1, lo: 0, i: 0, hi: int32(len(st.arena))})
	for len(st.fstack) > 0 {
		f := &st.fstack[len(st.fstack)-1]
		if f.i < f.hi {
			w := st.arena[f.i]
			f.i++
			if w == f.parent {
				f.parent = -1 // skip the tree edge back to the parent once
				continue
			}
			if !st.visited(w) {
				st.estack = append(st.estack, key(f.v, w))
				st.discover(w, r)
				f.children++
				lo := int32(len(st.arena))
				st.arena = nb(w, st.arena)
				st.fstack = append(st.fstack, bcFrame{v: w, parent: f.v, lo: lo, i: lo, hi: int32(len(st.arena))})
			} else if st.num[w] < st.num[f.v] {
				// Back edge to an ancestor.
				st.estack = append(st.estack, key(f.v, w))
				if st.num[w] < st.low[f.v] {
					st.low[f.v] = st.num[w]
				}
			}
			continue
		}
		v := f.v
		st.arena = st.arena[:f.lo]
		st.fstack = st.fstack[:len(st.fstack)-1]
		if len(st.fstack) == 0 {
			break
		}
		p := &st.fstack[len(st.fstack)-1]
		if st.low[v] < st.low[p.v] {
			st.low[p.v] = st.low[v]
		}
		if st.low[v] >= st.num[p.v] {
			// p.v separates v's subtree: one biconnected component closes.
			// Non-root parents become articulation points; the root does
			// when it has a second child.
			if len(st.fstack) > 1 || p.children > 1 {
				r.Articulation[p.v] = true
			}
			e := key(p.v, v)
			for len(st.estack) > 0 {
				top := st.estack[len(st.estack)-1]
				st.estack = st.estack[:len(st.estack)-1]
				r.EdgeComp[top] = st.comp
				if top == e {
					break
				}
			}
			st.comp++
		}
	}
}

// Inc is the deducible incremental BC algorithm: Apply re-derives the
// biconnectivity structure of exactly the connected components touched by
// ΔG (in G ⊕ ΔG), discovered by traversal from the update endpoints — no
// global scan.
//
// An Inc is not goroutine-safe: it (and the graph it owns) must be
// driven by a single writer goroutine making every call, reads included —
// Result aliases state that Apply mutates. Concurrent serving goes
// through internal/serve, which gives each maintainer one apply loop and
// publishes immutable snapshots to readers.
type Inc struct {
	g       *graph.Graph
	flat    *graph.Flat
	nb      nbrFunc // DFS adjacency source: the flat view's sorted rows
	res     *Result
	st      *lowpointState
	pending graph.Batch
}

// NewInc runs the batch algorithm and returns the incremental one.
func NewInc(g *graph.Graph) *Inc {
	i := &Inc{g: g, flat: graph.NewFlat(g), st: newLowpointState(g.NumNodes())}
	i.nb = i.flat.AppendOutSorted
	i.res = &Result{
		Articulation: make([]bool, g.NumNodes()),
		EdgeComp:     make(map[[2]graph.NodeID]int32, g.NumEdges()),
	}
	i.st.epoch = 1
	for s := 0; s < g.NumNodes(); s++ {
		if !i.st.visited(graph.NodeID(s)) {
			i.st.runComponent(i.nb, graph.NodeID(s), i.res)
		}
	}
	return i
}

// Graph returns the maintained graph.
func (i *Inc) Graph() *graph.Graph { return i.g }

// Flat returns the maintainer's flat adjacency view, for observability
// of overlay size and compaction counts.
func (i *Inc) Flat() *graph.Flat { return i.flat }

// Result returns the maintained structure (aliased).
func (i *Inc) Result() *Result { return i.res }

// RestoreState overwrites the maintained structure with one exported
// from a checkpoint of the same graph: the articulation flags and the
// per-edge component ids. The component-id allocator is advanced past
// every restored id so components re-derived after the restart can never
// collide with restored ones. The inputs are copied.
func (i *Inc) RestoreState(articulation []bool, edgeComp map[[2]graph.NodeID]int32) error {
	n := i.g.NumNodes()
	if len(articulation) != n {
		return fmt.Errorf("bc: restore of %d articulation flags into graph with %d nodes", len(articulation), n)
	}
	res := &Result{
		Articulation: append([]bool(nil), articulation...),
		EdgeComp:     make(map[[2]graph.NodeID]int32, len(edgeComp)),
	}
	maxComp := i.st.comp
	for k, c := range edgeComp {
		res.EdgeComp[k] = c
		if c >= maxComp {
			maxComp = c + 1
		}
	}
	i.res = res
	i.st.comp = maxComp
	return nil
}

// Apply computes G ⊕ ΔG and repairs the structure; it returns the number
// of nodes revisited (the affected-area measure).
func (i *Inc) Apply(b graph.Batch) int {
	i.Stage(b)
	return i.Repair()
}

// Stage materializes G ⊕ ΔG without repairing.
func (i *Inc) Stage(b graph.Batch) {
	applied := i.g.Apply(b.Net(false))
	i.pending = append(i.pending, applied...)
	i.flat.Stage(i.g, applied)
	i.flat.MaybeCompact(i.g)
	i.st.grow(i.g.NumNodes())
	for len(i.res.Articulation) < i.g.NumNodes() {
		i.res.Articulation = append(i.res.Articulation, false)
	}
}

// Repair re-runs the lowpoint DFS over the touched components.
func (i *Inc) Repair() int {
	applied := i.pending
	i.pending = nil
	if len(applied) == 0 {
		return 0
	}
	for _, u := range applied {
		if u.Kind == graph.DeleteEdge {
			delete(i.res.EdgeComp, key(u.From, u.To))
		}
	}
	i.st.epoch++
	visitedNodes := 0
	for _, u := range applied {
		for _, v := range [2]graph.NodeID{u.From, u.To} {
			if !i.g.Alive(v) || i.st.visited(v) {
				continue
			}
			pre := i.st.clock
			i.st.runComponent(i.nb, v, i.res)
			visitedNodes += int(i.st.clock - pre)
		}
	}
	return visitedNodes
}
