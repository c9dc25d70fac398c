package graph

import (
	"slices"
	"sort"
)

// DefaultCompactThreshold is the overlay-to-base ratio above which a Flat
// view rebuilds its CSR snapshots. 0.25 keeps overlay scans a small
// constant fraction of base scans while amortizing rebuild cost over many
// staged batches.
const DefaultCompactThreshold = 0.25

// Flat is a read-optimized adjacency view: an immutable CSR base snapshot
// plus a small per-node delta overlay for edges staged since the snapshot
// was built. Hot loops iterate the base row as a dense struct-of-arrays
// span (targets and weights in separate contiguous slices) and then the
// short overlay tail, instead of chasing the graph's pointer-rich [][]Edge
// lists.
//
// A Flat is maintained alongside a Graph by the incremental maintainers:
// after g.Apply(batch) returns the effectively-applied updates, Stage
// replays exactly those updates into the overlay. Deletions of base edges
// are lazy tombstones (a dead-bit array parallel to the CSR targets);
// insertions go to a per-node overlay slice, except that reinserting a
// tombstoned base edge resurrects it in place with the new weight.
//
// The overlay is kept small: once the number of staged half-edge
// operations since the last rebuild exceeds a fixed fraction of the
// base size (see SetCompactThreshold and NeedCompact), MaybeCompact
// rebuilds the CSR from the graph and clears the overlay, so a long-lived
// process never degrades to all-overlay reads.
//
// Flat tracks staged edge batches only. Callers that mutate the Graph
// through other entry points (DeleteNode, SetWeight) must Compact before
// the next read.
type Flat struct {
	directed  bool
	out       flatDir
	in        flatDir // unused when undirected; In* methods alias out
	threshold float64

	overlayOps  int   // staged half-edge ops since last compaction
	compactions int64 // total rebuilds, for observability
}

// flatDir is one direction (out- or in-adjacency) of a Flat view.
type flatDir struct {
	csr  *CSR
	dead []bool   // parallel to csr.Targets; nil until first tombstone
	add  [][]Edge // per-node overlay inserts; nil rows are common
}

// NewFlat builds a Flat view of g's current adjacency with an empty
// overlay. For directed graphs both the out- and in-direction snapshots
// are built, because pull-style readers (SSSP's feasibility scan) walk
// in-edges.
func NewFlat(g *Graph) *Flat {
	f := &Flat{directed: g.Directed(), threshold: DefaultCompactThreshold}
	f.rebuild(g)
	return f
}

func (f *Flat) rebuild(g *Graph) {
	n := g.NumNodes()
	f.out = flatDir{csr: Snapshot(g), add: make([][]Edge, n)}
	if f.directed {
		f.in = flatDir{csr: SnapshotIn(g), add: make([][]Edge, n)}
	}
	f.overlayOps = 0
}

// SetCompactThreshold sets the overlay-to-base ratio above which
// MaybeCompact rebuilds the snapshots. Values at or below zero compact
// after every staged batch. The maintainers keep DefaultCompactThreshold;
// tests lower or raise it to force or suppress compactions.
func (f *Flat) SetCompactThreshold(t float64) { f.threshold = t }

// Compactions returns how many times the CSR base has been rebuilt.
func (f *Flat) Compactions() int64 { return f.compactions }

// OverlayOps returns the number of half-edge operations staged since the
// last compaction.
func (f *Flat) OverlayOps() int { return f.overlayOps }

// OverlayRatio returns staged half-edge operations as a fraction of the
// base snapshot's half-edge entries. This is the staleness measure that
// NeedCompact compares against the threshold.
func (f *Flat) OverlayRatio() float64 {
	base := len(f.out.csr.Targets)
	if f.directed {
		base += len(f.in.csr.Targets)
	}
	return float64(f.overlayOps) / float64(base+1)
}

// NeedCompact reports whether the overlay has outgrown the configured
// fraction of the base and the snapshots should be rebuilt.
func (f *Flat) NeedCompact() bool {
	return f.overlayOps > 0 && f.OverlayRatio() > f.threshold
}

// Compact rebuilds the CSR snapshots from g and clears the overlay.
func (f *Flat) Compact(g *Graph) {
	f.rebuild(g)
	f.compactions++
}

// MaybeCompact compacts if NeedCompact holds and reports whether it did.
func (f *Flat) MaybeCompact(g *Graph) bool {
	if !f.NeedCompact() {
		return false
	}
	f.Compact(g)
	return true
}

// Stage replays an effectively-applied batch into the overlay. The batch
// must be exactly what g.Apply returned for updates already applied to g:
// every insert was absent before and every delete was present, so Stage
// never sees redundant updates.
func (f *Flat) Stage(g *Graph, applied Batch) {
	f.grow(g.NumNodes())
	for _, u := range applied {
		switch u.Kind {
		case InsertEdge:
			f.out.insert(u.From, u.To, u.W)
			if f.directed {
				f.in.insert(u.To, u.From, u.W)
			} else {
				f.out.insert(u.To, u.From, u.W)
			}
		case DeleteEdge:
			f.out.remove(u.From, u.To)
			if f.directed {
				f.in.remove(u.To, u.From)
			} else {
				f.out.remove(u.To, u.From)
			}
		}
		f.overlayOps += 2
	}
}

// grow extends the overlay rows to cover nodes added after the snapshot
// was built. Such nodes have an empty base row until the next compaction.
func (f *Flat) grow(n int) {
	for len(f.out.add) < n {
		f.out.add = append(f.out.add, nil)
	}
	if f.directed {
		for len(f.in.add) < n {
			f.in.add = append(f.in.add, nil)
		}
	}
}

// baseIndex locates (u, v) in the base row by binary search.
func (d *flatDir) baseIndex(u, v NodeID) (int, bool) {
	if int(u) >= d.csr.NumNodes() {
		return 0, false
	}
	lo, hi := int(d.csr.Offsets[u]), int(d.csr.Offsets[u+1])
	row := d.csr.Targets[lo:hi]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	if i < len(row) && row[i] == v {
		return lo + i, true
	}
	return 0, false
}

func (d *flatDir) insert(u, v NodeID, w int64) {
	if i, ok := d.baseIndex(u, v); ok {
		// The edge exists in the base. Since the applied batch guarantees
		// it was absent from the graph, it must be tombstoned: resurrect
		// it in place with the new weight.
		if d.dead != nil {
			d.dead[i] = false
		}
		d.csr.Weights[i] = w
		return
	}
	d.add[u] = append(d.add[u], Edge{To: v, W: w})
}

func (d *flatDir) remove(u, v NodeID) {
	if row := d.add[u]; len(row) > 0 {
		for k := range row {
			if row[k].To == v {
				row[k] = row[len(row)-1]
				d.add[u] = row[:len(row)-1]
				return
			}
		}
	}
	if i, ok := d.baseIndex(u, v); ok {
		if d.dead == nil {
			d.dead = make([]bool, len(d.csr.Targets))
		}
		d.dead[i] = true
	}
}

// spans returns the raw base row (targets, weights, optional dead bits)
// and the overlay tail for u. A nil dead slice means no base entry in the
// row is tombstoned.
func (d *flatDir) spans(u NodeID) (ts []NodeID, ws []int64, dead []bool, extra []Edge) {
	if int(u) < d.csr.NumNodes() {
		lo, hi := d.csr.Offsets[u], d.csr.Offsets[u+1]
		ts = d.csr.Targets[lo:hi]
		ws = d.csr.Weights[lo:hi]
		if d.dead != nil {
			dead = d.dead[lo:hi]
		}
	}
	if int(u) < len(d.add) {
		extra = d.add[u]
	}
	return ts, ws, dead, extra
}

// OutSpans returns u's out-adjacency as struct-of-arrays spans: the base
// targets and weights (parallel slices), an optional dead-bit slice
// (nil means every base entry is live; otherwise skip entries whose bit
// is set), and the overlay tail of edges staged since the last
// compaction. The returned slices are owned by the Flat and valid until
// the next Stage or Compact.
func (f *Flat) OutSpans(u NodeID) (ts []NodeID, ws []int64, dead []bool, extra []Edge) {
	return f.out.spans(u)
}

// InSpans returns u's in-adjacency spans (same as OutSpans for undirected
// graphs). Each entry's target is the edge's source node.
func (f *Flat) InSpans(u NodeID) (ts []NodeID, ws []int64, dead []bool, extra []Edge) {
	if !f.directed {
		return f.out.spans(u)
	}
	return f.in.spans(u)
}

// EachOut calls fn for every live out-edge of u: first the base row in
// ascending target order, then the overlay tail in staging order.
func (f *Flat) EachOut(u NodeID, fn func(v NodeID, w int64)) {
	f.out.each(u, fn)
}

// EachIn calls fn for every live in-edge of u, passing the source node
// and weight (same as EachOut for undirected graphs).
func (f *Flat) EachIn(u NodeID, fn func(v NodeID, w int64)) {
	if !f.directed {
		f.out.each(u, fn)
		return
	}
	f.in.each(u, fn)
}

func (d *flatDir) each(u NodeID, fn func(v NodeID, w int64)) {
	ts, ws, dead, extra := d.spans(u)
	if dead == nil {
		for k, v := range ts {
			fn(v, ws[k])
		}
	} else {
		for k, v := range ts {
			if !dead[k] {
				fn(v, ws[k])
			}
		}
	}
	for _, e := range extra {
		fn(e.To, e.W)
	}
}

// AppendOutSorted appends u's live out-neighbor ids to buf in ascending
// order and returns the extended slice. The base row is already sorted,
// so only the short overlay tail has to be sorted into place. Depth-first
// traversals use this with a shared arena to visit neighbors in
// deterministic order without per-node allocation.
func (f *Flat) AppendOutSorted(u NodeID, buf []NodeID) []NodeID {
	ts, _, dead, extra := f.out.spans(u)
	base := len(buf)
	if dead == nil {
		buf = append(buf, ts...)
	} else {
		for k, v := range ts {
			if !dead[k] {
				buf = append(buf, v)
			}
		}
	}
	sorted := len(buf) - base
	for _, e := range extra {
		buf = append(buf, e.To)
	}
	sortIDs(buf[base:], sorted)
	return buf
}

// AppendOutSorted appends u's out-neighbor ids from the adjacency lists
// to buf in ascending order and returns the extended slice: the same
// enumeration as Flat.AppendOutSorted, for batch traversals that read
// the graph directly.
func (g *Graph) AppendOutSorted(u NodeID, buf []NodeID) []NodeID {
	base := len(buf)
	for _, e := range g.out[u] {
		buf = append(buf, e.To)
	}
	sortIDs(buf[base:], 0)
	return buf
}

// sortIDs sorts ids ascending, given that ids[:sorted] is already in
// order. Insertion sort handles short rows and long rows with a short
// unsorted tail in near-linear time; anything else goes to slices.Sort,
// so a power-law hub never degrades quadratically.
func sortIDs(ids []NodeID, sorted int) {
	const insertionMax = 32
	if len(ids) > insertionMax && len(ids)-sorted > insertionMax {
		slices.Sort(ids)
		return
	}
	for i := max(sorted, 1); i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// SnapshotIn builds a CSR over the graph's in-adjacency: row u holds the
// sources of u's incoming edges, sorted by id. For undirected graphs this
// equals Snapshot.
func SnapshotIn(g *Graph) *CSR {
	n := g.NumNodes()
	c := &CSR{Offsets: make([]int32, n+1)}
	total := 0
	for u := 0; u < n; u++ {
		total += g.InDegree(NodeID(u))
	}
	c.Targets = make([]NodeID, 0, total)
	c.Weights = make([]int64, 0, total)
	type pair struct {
		to NodeID
		w  int64
	}
	var buf []pair
	for u := 0; u < n; u++ {
		buf = buf[:0]
		for _, e := range g.In(NodeID(u)) {
			buf = append(buf, pair{e.To, e.W})
		}
		sort.Slice(buf, func(i, j int) bool { return buf[i].to < buf[j].to })
		for _, p := range buf {
			c.Targets = append(c.Targets, p.to)
			c.Weights = append(c.Weights, p.w)
		}
		c.Offsets[u+1] = int32(len(c.Targets))
	}
	return c
}
