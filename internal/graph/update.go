package graph

import "fmt"

// UpdateKind distinguishes the unit update types of the paper: edge
// insertions and deletions. Vertex updates are expressed as their duals
// (AddNode/DeleteNode plus edge updates), per §4 of the paper.
type UpdateKind uint8

const (
	// InsertEdge adds edge (From, To) with weight W.
	InsertEdge UpdateKind = iota
	// DeleteEdge removes edge (From, To); W records the removed weight so
	// a batch can be reverted.
	DeleteEdge
)

// Update is a unit update ΔG: one edge insertion or deletion.
type Update struct {
	Kind     UpdateKind
	From, To NodeID
	W        int64
}

// String renders the update in +/-(u,v,w) form.
func (u Update) String() string {
	sign := "+"
	if u.Kind == DeleteEdge {
		sign = "-"
	}
	return fmt.Sprintf("%s(%d,%d,%d)", sign, u.From, u.To, u.W)
}

// Batch is a batch update: a sequence of unit updates applied in order.
type Batch []Update

// Size returns |ΔG|, the number of unit updates.
func (b Batch) Size() int { return len(b) }

// Inverse returns the batch that undoes b: the reverse sequence with each
// insertion turned into a deletion and vice versa.
func (b Batch) Inverse() Batch {
	inv := make(Batch, len(b))
	for i, u := range b {
		k := InsertEdge
		if u.Kind == InsertEdge {
			k = DeleteEdge
		}
		inv[len(b)-1-i] = Update{Kind: k, From: u.From, To: u.To, W: u.W}
	}
	return inv
}

// ApplySummary reports what one batch application did to a graph: the
// sub-batch that actually changed it plus a count of every update that
// was skipped and why. Re-inserting a present edge and deleting an
// absent one are idempotent no-ops — identically so for directed and
// undirected graphs, where the mirrored half-edge representation used to
// make the accounting easy to get subtly wrong — and malformed updates
// (out-of-range ids, self-loops, dead endpoints, unknown kinds) are
// counted and skipped instead of panicking, so arbitrary input reaching
// batch application is safe.
type ApplySummary struct {
	// Applied is the sub-batch that changed the graph, in order; its
	// Inverse reverts the application. Deletions carry the weight of the
	// edge that was removed.
	Applied Batch
	// Inserted and Deleted count the applied updates by kind.
	Inserted, Deleted int
	// DupInserts counts insertions of already-present edges (for
	// undirected graphs, in either orientation).
	DupInserts int
	// AbsentDeletes counts deletions of edges that do not exist.
	AbsentDeletes int
	// Malformed counts updates no graph state could apply: endpoints out
	// of [0, NumNodes), self-loops, tombstoned endpoints, unknown kinds.
	Malformed int
}

// Skipped returns the total number of updates that did not change the
// graph.
func (s ApplySummary) Skipped() int {
	return s.DupInserts + s.AbsentDeletes + s.Malformed
}

// ApplyCounted applies the batch to g in order, computing G ⊕ ΔG in
// place, and returns the full accounting. It never panics: every update
// is classified before it touches the adjacency structures.
func (g *Graph) ApplyCounted(b Batch) ApplySummary {
	var s ApplySummary
	s.Applied = make(Batch, 0, len(b))
	n := NodeID(g.NumNodes())
	for _, u := range b {
		if u.From < 0 || u.From >= n || u.To < 0 || u.To >= n ||
			u.From == u.To || !g.Alive(u.From) || !g.Alive(u.To) {
			s.Malformed++
			continue
		}
		switch u.Kind {
		case InsertEdge:
			if g.InsertEdge(u.From, u.To, u.W) {
				s.Applied = append(s.Applied, u)
				s.Inserted++
			} else {
				s.DupInserts++
			}
		case DeleteEdge:
			w := g.Weight(u.From, u.To)
			if g.DeleteEdge(u.From, u.To) {
				s.Applied = append(s.Applied, Update{Kind: DeleteEdge, From: u.From, To: u.To, W: w})
				s.Deleted++
			} else {
				s.AbsentDeletes++
			}
		default:
			s.Malformed++
		}
	}
	return s
}

// Apply applies the batch to g in order, computing G ⊕ ΔG in place.
// It returns the sub-batch of updates that actually changed the graph
// (inserting a present edge or deleting an absent one is skipped), so the
// caller can revert with the result's Inverse. Deletions in the returned
// batch carry the weight of the edge that was removed. Callers that need
// the skip accounting use ApplyCounted.
func (g *Graph) Apply(b Batch) Batch {
	return g.ApplyCounted(b).Applied
}

// Validate checks that the update is well-formed against a graph with n
// nodes: both endpoints in [0, n) and a weight in [0, MaxEdgeWeight]. A
// negative n skips the upper-bound check on node ids, validating only
// what is knowable without a graph — the mode used by ReadBatch, where
// the target graph is not yet known.
func (u Update) Validate(n int) error {
	for _, v := range [2]NodeID{u.From, u.To} {
		if v < 0 {
			return fmt.Errorf("negative node id %d", v)
		}
		if n >= 0 && int(v) >= n {
			return fmt.Errorf("node %d out of range [0,%d)", v, n)
		}
	}
	return validateWeight(u.W)
}

// validateWeight enforces the accepted edge-weight domain [0,
// MaxEdgeWeight], the one check behind Update.Validate and both graph
// readers.
func validateWeight(w int64) error {
	if w < 0 {
		return fmt.Errorf("negative weight %d", w)
	}
	if w > MaxEdgeWeight {
		return fmt.Errorf("weight %d above MaxEdgeWeight %d", w, MaxEdgeWeight)
	}
	return nil
}

// Validate checks every update in the batch against a graph with n nodes
// (see Update.Validate), reporting the index of the first offender. It is
// the gate a serving layer runs before handing ΔG to a maintainer, so
// malformed input fails fast instead of panicking deep inside repair code.
func (b Batch) Validate(n int) error {
	for i, u := range b {
		if err := u.Validate(n); err != nil {
			return fmt.Errorf("update %d %s: %w", i, u, err)
		}
	}
	return nil
}

// TouchedNodes returns the distinct nodes incident to any update in b, the
// starting points for initial scope functions.
func (b Batch) TouchedNodes() []NodeID {
	seen := make(map[NodeID]struct{}, 2*len(b))
	var out []NodeID
	for _, u := range b {
		if _, ok := seen[u.From]; !ok {
			seen[u.From] = struct{}{}
			out = append(out, u.From)
		}
		if _, ok := seen[u.To]; !ok {
			seen[u.To] = struct{}{}
			out = append(out, u.To)
		}
	}
	return out
}

// Net reduces the batch to its net effect per edge: G ⊕ Net(ΔG) equals
// G ⊕ ΔG for every graph G of the stated directedness, but churn
// (insert-then-delete, repeated operations) collapses to at most two
// updates per edge. Incremental algorithms process Net(ΔG) to avoid wasted
// work on churn. For undirected graphs, updates on (u, v) and (v, u)
// address the same edge and are collapsed together.
func (b Batch) Net(directed bool) Batch {
	type state uint8
	const (
		unknown     state = iota // no op seen yet
		insIfAbsent              // insert applied to unknown base state
		absent
		present
	)
	type pairFx struct {
		st   state
		w    int64
		last int // index of last op, for stable output order
	}
	key := func(u, v NodeID) uint64 {
		if !directed && u > v {
			u, v = v, u
		}
		return pack(u, v)
	}
	fx := make(map[uint64]*pairFx, len(b))
	order := make([]uint64, 0, len(b))
	for i, u := range b {
		k := key(u.From, u.To)
		p := fx[k]
		if p == nil {
			p = &pairFx{}
			fx[k] = p
			order = append(order, k)
		}
		p.last = i
		switch u.Kind {
		case InsertEdge:
			switch p.st {
			case unknown:
				p.st, p.w = insIfAbsent, u.W
			case absent:
				p.st, p.w = present, u.W
				// insIfAbsent, present: duplicate insert is a no-op.
			}
		case DeleteEdge:
			p.st = absent
		}
	}
	out := make(Batch, 0, len(fx))
	for _, k := range order {
		p := fx[k]
		u, v := NodeID(k>>32), NodeID(uint32(k))
		switch p.st {
		case insIfAbsent:
			out = append(out, Update{Kind: InsertEdge, From: u, To: v, W: p.w})
		case absent:
			out = append(out, Update{Kind: DeleteEdge, From: u, To: v})
		case present:
			// The edge may have existed with a different weight: replace it.
			out = append(out, Update{Kind: DeleteEdge, From: u, To: v},
				Update{Kind: InsertEdge, From: u, To: v, W: p.w})
		}
	}
	return out
}
