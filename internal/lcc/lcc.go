// Package lcc implements local clustering coefficients (§5.3 of the
// paper) on undirected graphs: the batch fixpoint algorithm LCC_fp over
// the status variables d_v (degree) and λ_v (incident triangles), the
// deducible incremental algorithm IncLCC that recomputes exactly the
// potentially-affected variables (edge endpoints and their one-hop
// neighborhood), its unit-update variant, and the streaming competitor
// DynLCC (Ediger et al. style exact per-edge delta maintenance).
//
// γ_v = 2·λ_v / (d_v·(d_v − 1)); nodes of degree < 2 have γ_v = 0.
package lcc

import (
	"fmt"

	"incgraph/internal/graph"
)

// Result holds the status variables of LCC_fp: the degree and triangle
// count per node.
type Result struct {
	Deg []int32
	Tri []int64
}

// NewResult allocates a zeroed result for n nodes.
func NewResult(n int) *Result {
	return &Result{Deg: make([]int32, n), Tri: make([]int64, n)}
}

// Gamma returns the local clustering coefficient of v.
func (r *Result) Gamma(v graph.NodeID) float64 {
	d := int64(r.Deg[v])
	if d < 2 {
		return 0
	}
	return 2 * float64(r.Tri[v]) / float64(d*(d-1))
}

// Equal reports whether two results agree on every variable.
func (r *Result) Equal(o *Result) bool {
	if len(r.Deg) != len(o.Deg) {
		return false
	}
	for i := range r.Deg {
		if r.Deg[i] != o.Deg[i] || r.Tri[i] != o.Tri[i] {
			return false
		}
	}
	return true
}

func (r *Result) clone() *Result {
	return &Result{Deg: append([]int32(nil), r.Deg...), Tri: append([]int64(nil), r.Tri...)}
}

func (r *Result) grow(n int) {
	for len(r.Deg) < n {
		r.Deg = append(r.Deg, 0)
		r.Tri = append(r.Tri, 0)
	}
}

// Brute recomputes the result by enumerating neighbor pairs, the O(Σ d²)
// reference used by tests.
func Brute(g *graph.Graph) *Result {
	r := NewResult(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		ns := g.Out(graph.NodeID(v))
		r.Deg[v] = int32(len(ns))
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				if g.HasEdge(ns[i].To, ns[j].To) {
					r.Tri[v]++
				}
			}
		}
	}
	return r
}

// Run is the batch fixpoint algorithm LCC_fp: one pass setting every d_v,
// plus a triangle pass over sorted adjacency rows — for each edge (u, v)
// with u < v, every common neighbor w gains one triangle (the edge
// opposite w identifies the triangle {u, v, w} exactly once for w). The
// rows are the base rows of a fresh Flat view, which are sorted by id
// and, with no overlay or tombstones yet, are the whole adjacency.
func Run(g *graph.Graph) *Result {
	n := g.NumNodes()
	r := NewResult(n)
	for v := 0; v < n; v++ {
		r.Deg[v] = int32(g.Degree(graph.NodeID(v)))
	}
	f := graph.NewFlat(g)
	row := func(u graph.NodeID) []graph.NodeID {
		ts, _, _, _ := f.OutSpans(u)
		return ts
	}
	for u := 0; u < n; u++ {
		a := row(graph.NodeID(u))
		for _, v := range a {
			if graph.NodeID(u) >= v {
				continue
			}
			b := row(v)
			i, j := 0, 0
			for i < len(a) && j < len(b) {
				switch {
				case a[i] < b[j]:
					i++
				case a[i] > b[j]:
					j++
				default:
					r.Tri[a[i]]++
					i++
					j++
				}
			}
		}
	}
	return r
}

// Inc is the deducible incremental algorithm IncLCC. For each changed
// edge (u, v) it marks d_u, d_v and λ_w for every w within one hop of u or
// v as potentially affected, and recomputes exactly those variables with
// the original update functions — no auxiliary structure at all (§5.3).
//
// An Inc is not goroutine-safe: it (and the graph it owns) must be
// driven by a single writer goroutine making every call, reads included —
// Result aliases state that Apply mutates. Concurrent serving goes
// through internal/serve, which gives each maintainer one apply loop and
// publishes immutable snapshots to readers.
type Inc struct {
	g *graph.Graph
	r *Result
	// stamp/epoch mark for O(1) membership tests during recomputation.
	mark    []int64
	epoch   int64
	pending graph.Batch
	// The PE accumulators are epoch-marked dense sets (mark array + list),
	// replacing the per-apply map[NodeID]bool allocations: tri collects the
	// λ recomputation set across Stage (pre-update hoods) and Repair
	// (post-update hoods); deg collects the endpoints whose d_v changed.
	triMark  []int64
	triEpoch int64
	triList  []graph.NodeID
	degMark  []int64
	degEpoch int64
	degList  []graph.NodeID
}

// NewInc runs the batch algorithm and returns the incremental one.
func NewInc(g *graph.Graph) *Inc {
	n := g.NumNodes()
	return &Inc{
		g: g, r: Run(g),
		mark:    make([]int64, n),
		triMark: make([]int64, n), triEpoch: 1,
		degMark: make([]int64, n), degEpoch: 1,
	}
}

// growSets extends the PE mark arrays to the current node count.
func (i *Inc) growSets() {
	n := i.g.NumNodes()
	for len(i.triMark) < n {
		i.triMark = append(i.triMark, 0)
	}
	for len(i.degMark) < n {
		i.degMark = append(i.degMark, 0)
	}
}

func (i *Inc) triAdd(v graph.NodeID) {
	if i.triMark[v] != i.triEpoch {
		i.triMark[v] = i.triEpoch
		i.triList = append(i.triList, v)
	}
}

func (i *Inc) degAdd(v graph.NodeID) {
	if i.degMark[v] != i.degEpoch {
		i.degMark[v] = i.degEpoch
		i.degList = append(i.degList, v)
	}
}

// triReset discards the accumulated λ set and opens a new generation.
func (i *Inc) triReset() {
	i.triEpoch++
	i.triList = i.triList[:0]
}

// hood adds v and its current one-hop neighborhood to the λ set.
func (i *Inc) hood(v graph.NodeID) {
	i.triAdd(v)
	for _, e := range i.g.Out(v) {
		i.triAdd(e.To)
	}
}

// Graph returns the maintained graph.
func (i *Inc) Graph() *graph.Graph { return i.g }

// Result returns the maintained status (aliased).
func (i *Inc) Result() *Result { return i.r }

// RestoreState overwrites the maintained status with one exported from a
// checkpoint of the same graph. The d_v and λ_v variables are IncLCC's
// complete state — it keeps no auxiliary structure (§5.3). The slices
// are copied.
func (i *Inc) RestoreState(deg []int32, tri []int64) error {
	n := i.g.NumNodes()
	if len(deg) != n || len(tri) != n {
		return fmt.Errorf("lcc: restore of %d/%d variables into graph with %d nodes", len(deg), len(tri), n)
	}
	i.r = &Result{Deg: append([]int32(nil), deg...), Tri: append([]int64(nil), tri...)}
	return nil
}

// Apply computes G ⊕ ΔG and recomputes the PE variables. It returns the
// number of λ recomputations, the affected-area measure.
func (i *Inc) Apply(b graph.Batch) int {
	i.Stage(b)
	return i.Repair()
}

// Stage materializes G ⊕ ΔG, first snapshotting the pre-update one-hop
// neighborhoods: a deleted edge's endpoints lose triangle partners that
// are only visible pre-deletion.
func (i *Inc) Stage(b graph.Batch) {
	net := b.Net(false)
	i.growSets()
	for _, u := range net {
		i.hood(u.From)
		i.hood(u.To)
	}
	i.pending = append(i.pending, i.g.Apply(net)...)
}

// Repair recomputes the PE variables for the staged updates.
func (i *Inc) Repair() int {
	applied := i.pending
	i.pending = i.pending[:0]
	if len(applied) == 0 && i.g.NumNodes() == len(i.r.Deg) {
		i.triReset() // pre-update hoods of no-op batches are moot
		return 0
	}
	i.r.grow(i.g.NumNodes())
	for len(i.mark) < i.g.NumNodes() {
		i.mark = append(i.mark, 0)
	}
	i.growSets()
	i.degEpoch++
	i.degList = i.degList[:0]
	for _, u := range applied {
		i.degAdd(u.From)
		i.degAdd(u.To)
		i.hood(u.From)
		i.hood(u.To)
	}
	for _, v := range i.degList {
		i.r.Deg[v] = int32(i.g.Degree(v))
	}
	for _, v := range i.triList {
		i.r.Tri[v] = i.countTriangles(v)
	}
	pe := len(i.triList)
	i.triReset()
	return pe
}

// countTriangles recomputes λ_v with a stamped neighbor set: each triangle
// {v, x, y} is seen twice (via x and via y).
func (i *Inc) countTriangles(v graph.NodeID) int64 {
	i.epoch++
	ns := i.g.Out(v)
	for _, e := range ns {
		i.mark[e.To] = i.epoch
	}
	var cnt int64
	for _, e := range ns {
		for _, f := range i.g.Out(e.To) {
			if f.To != v && i.mark[f.To] == i.epoch {
				cnt++
			}
		}
	}
	return cnt / 2
}

// IncUnit is IncLCC_n: the unit-update variant.
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

// DynLCC is the streaming competitor (Ediger et al.): every unit update
// adjusts the triangle counts by the common neighborhood of its endpoints
// — exact deltas, one edge at a time.
type DynLCC struct {
	g     *graph.Graph
	r     *Result
	mark  []int64
	epoch int64
}

// NewDynLCC runs the batch algorithm and returns the competitor.
func NewDynLCC(g *graph.Graph) *DynLCC {
	return &DynLCC{g: g, r: Run(g), mark: make([]int64, g.NumNodes())}
}

// Graph returns the maintained graph.
func (d *DynLCC) Graph() *graph.Graph { return d.g }

// Result returns the maintained status.
func (d *DynLCC) Result() *Result { return d.r }

// Apply processes each unit update with a common-neighborhood delta.
func (d *DynLCC) Apply(b graph.Batch) int {
	for _, u := range b {
		d.applyUnit(u)
	}
	return 0
}

func (d *DynLCC) applyUnit(u graph.Update) {
	switch u.Kind {
	case graph.InsertEdge:
		if !d.g.InsertEdge(u.From, u.To, u.W) {
			return
		}
		d.r.grow(d.g.NumNodes())
		for len(d.mark) < d.g.NumNodes() {
			d.mark = append(d.mark, 0)
		}
		d.r.Deg[u.From]++
		d.r.Deg[u.To]++
		d.delta(u.From, u.To, 1)
	case graph.DeleteEdge:
		if !d.g.HasEdge(u.From, u.To) {
			return
		}
		d.delta(u.From, u.To, -1)
		d.g.DeleteEdge(u.From, u.To)
		d.r.Deg[u.From]--
		d.r.Deg[u.To]--
	}
}

// delta adjusts triangle counts for the (present) edge (a, b) by sgn per
// common neighbor.
func (d *DynLCC) delta(a, b graph.NodeID, sgn int64) {
	d.epoch++
	for _, e := range d.g.Out(a) {
		d.mark[e.To] = d.epoch
	}
	for _, e := range d.g.Out(b) {
		if e.To != a && d.mark[e.To] == d.epoch {
			d.r.Tri[a] += sgn
			d.r.Tri[b] += sgn
			d.r.Tri[e.To] += sgn
		}
	}
}
