package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary codecs for graphs and batches. The text format (io.go) is the
// human-facing interchange format; the binary format is the durability
// format: it is what checkpoints and the write-ahead log store, so it
// must round-trip *everything* — including node tombstones, which the
// text writer cannot express. Varint-encoded throughout; a power-law
// graph serializes to roughly 3 bytes per edge.

// binaryMagic heads a binary graph blob. The trailing version digit is
// bumped on incompatible changes so recovery fails loudly on a format it
// does not understand instead of reconstructing a wrong graph.
const binaryMagic = "IGB1"

// maxBinaryNodes bounds the node count accepted by ReadBinary, so a
// corrupted header cannot make recovery attempt a multi-terabyte
// allocation before the CRC check has a chance to run.
const maxBinaryNodes = 1 << 31

// WriteBinary serializes the graph in the binary durability format.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(binaryMagic)
	if g.directed {
		bw.WriteByte(1)
	} else {
		bw.WriteByte(0)
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(x uint64) {
		bw.Write(buf[:binary.PutUvarint(buf[:], x)])
	}
	putVarint := func(x int64) {
		bw.Write(buf[:binary.PutVarint(buf[:], x)])
	}
	putUvarint(uint64(g.NumNodes()))
	// Labels: sparse (id, label) pairs — most nodes carry label 0.
	labeled := 0
	for _, l := range g.labels {
		if l != 0 {
			labeled++
		}
	}
	putUvarint(uint64(labeled))
	for v, l := range g.labels {
		if l != 0 {
			putUvarint(uint64(v))
			putVarint(int64(l))
		}
	}
	// Tombstones: the ids the text format loses.
	putUvarint(uint64(g.NumNodes() - g.NumAlive()))
	for v, a := range g.alive {
		if !a {
			putUvarint(uint64(v))
		}
	}
	putUvarint(uint64(g.NumEdges()))
	g.Edges(func(u, v NodeID, wgt int64) {
		putUvarint(uint64(u))
		putUvarint(uint64(v))
		putVarint(wgt)
	})
	// bufio's error is sticky: the final Flush reports the first write
	// failure from anywhere above.
	return bw.Flush()
}

// ReadBinary parses a graph in the binary durability format, validating
// every id against the declared node count so corrupted input yields an
// error, never a panic or an inconsistent graph.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph binary: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph binary: bad magic %q", magic)
	}
	dirByte, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("graph binary: reading kind: %w", err)
	}
	if dirByte > 1 {
		return nil, fmt.Errorf("graph binary: bad kind byte %d", dirByte)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph binary: reading node count: %w", err)
	}
	if n > maxBinaryNodes {
		return nil, fmt.Errorf("graph binary: node count %d too large", n)
	}
	g := New(int(n), dirByte == 1)
	readID := func(what string) (NodeID, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("graph binary: reading %s: %w", what, err)
		}
		if v >= n {
			return 0, fmt.Errorf("graph binary: %s %d out of range [0,%d)", what, v, n)
		}
		return NodeID(v), nil
	}
	labeled, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph binary: reading label count: %w", err)
	}
	if labeled > n {
		return nil, fmt.Errorf("graph binary: label count %d exceeds nodes %d", labeled, n)
	}
	for i := uint64(0); i < labeled; i++ {
		v, err := readID("label id")
		if err != nil {
			return nil, err
		}
		l, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("graph binary: reading label: %w", err)
		}
		g.SetLabel(v, Label(l))
	}
	dead, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph binary: reading tombstone count: %w", err)
	}
	if dead > n {
		return nil, fmt.Errorf("graph binary: tombstone count %d exceeds nodes %d", dead, n)
	}
	tombs := make([]NodeID, 0, dead)
	for i := uint64(0); i < dead; i++ {
		v, err := readID("tombstone id")
		if err != nil {
			return nil, err
		}
		tombs = append(tombs, v)
	}
	edges, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph binary: reading edge count: %w", err)
	}
	for i := uint64(0); i < edges; i++ {
		u, err := readID("edge tail")
		if err != nil {
			return nil, err
		}
		v, err := readID("edge head")
		if err != nil {
			return nil, err
		}
		w, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("graph binary: reading edge weight: %w", err)
		}
		if err := validateWeight(w); err != nil {
			return nil, fmt.Errorf("graph binary: edge (%d,%d): %w", u, v, err)
		}
		if !g.InsertEdge(u, v, w) {
			return nil, fmt.Errorf("graph binary: duplicate or degenerate edge (%d,%d)", u, v)
		}
	}
	// Tombstone last: dead nodes carry no edges in a well-formed blob, so
	// the insertions above never referenced them.
	for _, v := range tombs {
		if g.OutDegree(v) != 0 || (g.directed && g.InDegree(v) != 0) {
			return nil, fmt.Errorf("graph binary: tombstoned node %d has edges", v)
		}
		g.DeleteNode(v)
	}
	return g, nil
}

// AppendBatchBinary appends the binary encoding of b to dst and returns
// the result — the batch payload format of the write-ahead log.
func AppendBatchBinary(dst []byte, b Batch) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	for _, u := range b {
		dst = append(dst, byte(u.Kind))
		dst = binary.AppendUvarint(dst, uint64(uint32(u.From)))
		dst = binary.AppendUvarint(dst, uint64(uint32(u.To)))
		dst = binary.AppendVarint(dst, u.W)
	}
	return dst
}

// DecodeBatchBinary parses a batch encoded by AppendBatchBinary from the
// front of data, returning the batch and the unconsumed tail. Corrupted
// input yields an error, never a panic.
func DecodeBatchBinary(data []byte) (Batch, []byte, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, nil, fmt.Errorf("batch binary: bad count")
	}
	data = data[n:]
	// Each update costs at least 4 bytes; reject counts the data cannot
	// hold so corruption cannot force a huge allocation.
	if count > uint64(len(data)/4+1) {
		return nil, nil, fmt.Errorf("batch binary: count %d exceeds payload", count)
	}
	b := make(Batch, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(data) == 0 {
			return nil, nil, fmt.Errorf("batch binary: truncated at update %d", i)
		}
		kind := UpdateKind(data[0])
		if kind != InsertEdge && kind != DeleteEdge {
			return nil, nil, fmt.Errorf("batch binary: bad kind %d at update %d", kind, i)
		}
		data = data[1:]
		from, n := binary.Uvarint(data)
		if n <= 0 || from > uint64(^uint32(0)) {
			return nil, nil, fmt.Errorf("batch binary: bad from at update %d", i)
		}
		data = data[n:]
		to, n := binary.Uvarint(data)
		if n <= 0 || to > uint64(^uint32(0)) {
			return nil, nil, fmt.Errorf("batch binary: bad to at update %d", i)
		}
		data = data[n:]
		w, n := binary.Varint(data)
		if n <= 0 {
			return nil, nil, fmt.Errorf("batch binary: bad weight at update %d", i)
		}
		data = data[n:]
		b = append(b, Update{Kind: kind, From: NodeID(int32(uint32(from))), To: NodeID(int32(uint32(to))), W: w})
	}
	return b, data, nil
}
