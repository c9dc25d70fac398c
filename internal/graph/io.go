package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// The text format is a labeled edge list, line-oriented and diff-friendly:
//
//	graph <directed|undirected> <numNodes>
//	v <id> <label>            # only nodes with non-zero labels
//	e <from> <to> <weight>
//
// Lines starting with '#' and blank lines are ignored. It round-trips
// everything except node tombstones (deleted node ids are compacted away
// by the writer only if they are trailing).

// WriteTo serializes the graph. It returns the number of bytes written.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(c int, err error) error {
		n += int64(c)
		return err
	}
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	if err := count(fmt.Fprintf(bw, "graph %s %d\n", kind, g.NumNodes())); err != nil {
		return n, err
	}
	for v := 0; v < g.NumNodes(); v++ {
		if l := g.Label(NodeID(v)); l != 0 {
			if err := count(fmt.Fprintf(bw, "v %d %d\n", v, l)); err != nil {
				return n, err
			}
		}
	}
	var werr error
	g.Edges(func(u, v NodeID, wgt int64) {
		if werr == nil {
			werr = count(fmt.Fprintf(bw, "e %d %d %d\n", u, v, wgt))
		}
	})
	if werr != nil {
		return n, werr
	}
	return n, bw.Flush()
}

// WriteBatch serializes a batch of updates, one per line: "+ u v w" for
// insertions, "- u v" (or "- u v w" when the deletion records the removed
// weight, as the batches returned by Graph.Apply do) for deletions.
// Comments and blank lines are allowed when reading back; the format
// round-trips exactly through ReadBatch.
func WriteBatch(w io.Writer, b Batch) error {
	bw := bufio.NewWriter(w)
	for _, u := range b {
		var err error
		switch u.Kind {
		case InsertEdge:
			_, err = fmt.Fprintf(bw, "+ %d %d %d\n", u.From, u.To, u.W)
		case DeleteEdge:
			if u.W != 0 {
				_, err = fmt.Fprintf(bw, "- %d %d %d\n", u.From, u.To, u.W)
			} else {
				_, err = fmt.Fprintf(bw, "- %d %d\n", u.From, u.To)
			}
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBatch parses a batch in the WriteBatch format. Each update is
// validated as it is parsed (non-negative node ids and weights, see
// Update.Validate), so a malformed update file fails with a line-numbered
// error here instead of panicking deep inside a maintainer. Upper node-id
// bounds depend on the target graph and are checked by Batch.Validate.
func ReadBatch(r io.Reader) (Batch, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var b Batch
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		var upd Update
		switch {
		case fields[0] == "+" && len(fields) == 4:
			var u, v, w int64
			if _, err := fmt.Sscanf(strings.Join(fields[1:], " "), "%d %d %d", &u, &v, &w); err != nil {
				return nil, fmt.Errorf("batch: line %d: %v", line, err)
			}
			upd = Update{Kind: InsertEdge, From: NodeID(u), To: NodeID(v), W: w}
		case fields[0] == "-" && (len(fields) == 3 || len(fields) == 4):
			var u, v, w int64
			if _, err := fmt.Sscanf(fields[1]+" "+fields[2], "%d %d", &u, &v); err != nil {
				return nil, fmt.Errorf("batch: line %d: %v", line, err)
			}
			if len(fields) == 4 {
				if _, err := fmt.Sscanf(fields[3], "%d", &w); err != nil {
					return nil, fmt.Errorf("batch: line %d: %v", line, err)
				}
			}
			upd = Update{Kind: DeleteEdge, From: NodeID(u), To: NodeID(v), W: w}
		default:
			return nil, fmt.Errorf("batch: line %d: malformed update %q", line, text)
		}
		if err := upd.Validate(-1); err != nil {
			return nil, fmt.Errorf("batch: line %d: %v", line, err)
		}
		b = append(b, upd)
	}
	return b, sc.Err()
}

// Read parses a graph in the text format.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "graph":
			if g != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate header", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: malformed header", line)
			}
			var n int
			if _, err := fmt.Sscanf(fields[2], "%d", &n); err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad node count %q", line, fields[2])
			}
			switch fields[1] {
			case "directed":
				g = New(n, true)
			case "undirected":
				g = New(n, false)
			default:
				return nil, fmt.Errorf("graph: line %d: bad kind %q", line, fields[1])
			}
		case "v":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: v before header", line)
			}
			var id, label int64
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: malformed v line", line)
			}
			if _, err := fmt.Sscanf(fields[1]+" "+fields[2], "%d %d", &id, &label); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			if id < 0 || id >= int64(g.NumNodes()) {
				return nil, fmt.Errorf("graph: line %d: node %d out of range", line, id)
			}
			g.SetLabel(NodeID(id), Label(label))
		case "e":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: e before header", line)
			}
			var u, v, wgt int64
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: malformed e line", line)
			}
			if _, err := fmt.Sscanf(strings.Join(fields[1:], " "), "%d %d %d", &u, &v, &wgt); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			if u < 0 || u >= int64(g.NumNodes()) || v < 0 || v >= int64(g.NumNodes()) {
				return nil, fmt.Errorf("graph: line %d: edge (%d,%d) out of range", line, u, v)
			}
			if err := validateWeight(wgt); err != nil {
				return nil, fmt.Errorf("graph: line %d: edge (%d,%d): %v", line, u, v, err)
			}
			if !g.InsertEdge(NodeID(u), NodeID(v), wgt) {
				return nil, fmt.Errorf("graph: line %d: duplicate or degenerate edge (%d,%d)", line, u, v)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: missing header")
	}
	return g, nil
}
