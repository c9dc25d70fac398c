package graph

import "sort"

// csr is a compressed-sparse-row snapshot of one direction of a graph's
// adjacency with every row sorted by neighbor id: the base a Flat view
// keeps under its overlay. Row u of the in-direction holds the sources
// of u's incoming edges.
type csr struct {
	offsets []int32
	targets []NodeID
	weights []int64
}

// buildCSR snapshots g's out-adjacency, or its in-adjacency when in is
// set (the same rows for undirected graphs).
func buildCSR(g *Graph, in bool) *csr {
	row := g.Out
	if in {
		row = g.In
	}
	n := g.NumNodes()
	c := &csr{offsets: make([]int32, n+1)}
	total := 0
	for u := 0; u < n; u++ {
		total += len(row(NodeID(u)))
	}
	c.targets = make([]NodeID, 0, total)
	c.weights = make([]int64, 0, total)
	type pair struct {
		to NodeID
		w  int64
	}
	var buf []pair
	for u := 0; u < n; u++ {
		buf = buf[:0]
		for _, e := range row(NodeID(u)) {
			buf = append(buf, pair{e.To, e.W})
		}
		sort.Slice(buf, func(i, j int) bool { return buf[i].to < buf[j].to })
		for _, p := range buf {
			c.targets = append(c.targets, p.to)
			c.weights = append(c.weights, p.w)
		}
		c.offsets[u+1] = int32(len(c.targets))
	}
	return c
}

// numNodes returns the number of rows in the snapshot.
func (c *csr) numNodes() int { return len(c.offsets) - 1 }

// neighbors returns u's sorted neighbor ids.
func (c *csr) neighbors(u NodeID) []NodeID {
	return c.targets[c.offsets[u]:c.offsets[u+1]]
}
