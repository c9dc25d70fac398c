package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"incgraph/internal/graph"
	"incgraph/internal/shard"
	"incgraph/internal/trace"
)

// routedPart is how the routed topology partitions the graph: the hash
// partitioner over two shards that incrouter -spawn uses by default and
// the traced composition builds.
var routedPart shard.Partitioner = shard.NewHashPartitioner(2)

// requestTimeout bounds one request; a request that times out counts as
// failed, and the run's final answers can then no longer be checked.
const requestTimeout = 30 * time.Second

// newClient returns an HTTP client that holds at most one connection:
// the writer and the reader each own one, so a run never opens more
// than two.
func newClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// tally counts one side's requests.
type tally struct {
	attempted int
	failed    int
	errs      []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// do sends one request with a fresh trace ID in its traceparent header
// (the traced run keys its spans by it) and reads the body in full.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("traceparent", trace.FormatTraceparent(trace.NewTraceID(), trace.NewSpanID()))
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// headFields decodes the top-level fields of a JSON object that come
// before "data", without decoding the (large) answer itself.
func headFields(body []byte) (map[string]json.RawMessage, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return nil, fmt.Errorf("not a JSON object")
	}
	out := make(map[string]json.RawMessage)
	for dec.More() {
		t, err := dec.Token()
		if err != nil {
			return nil, err
		}
		key, _ := t.(string)
		if key == "data" {
			return out, nil
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return nil, err
		}
		out[key] = v
	}
	return out, nil
}

// epochs is the stream position a response reports: per class for one
// incgraphd, per shard for the router. It must never go backwards.
type epochs []uint64

// covers reports whether e is component-wise at least prev.
func (e epochs) covers(prev epochs) bool {
	if len(prev) == 0 {
		return true
	}
	if len(e) != len(prev) {
		return false
	}
	for i := range e {
		if e[i] < prev[i] {
			return false
		}
	}
	return true
}

// target is the serving endpoint the load runs against.
type target struct {
	Base   string
	Routed bool
	Algos  []string
}

// ackEpochs extracts the epochs an update acknowledgment reports, and
// whether it confirms the batch applied.
func (t target) ackEpochs(body []byte) (epochs, bool, error) {
	var r struct {
		Applied bool            `json:"applied"`
		Epochs  json.RawMessage `json:"epochs"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, false, err
	}
	if t.Routed {
		var v []uint64
		if err := json.Unmarshal(r.Epochs, &v); err != nil {
			return nil, false, err
		}
		return v, r.Applied, nil
	}
	var m map[string]uint64
	if err := json.Unmarshal(r.Epochs, &m); err != nil {
		return nil, false, err
	}
	e := make(epochs, len(t.Algos))
	for i, a := range t.Algos {
		e[i] = m[a]
	}
	return e, r.Applied, nil
}

// queryEpochs extracts the epochs a query answer is stamped with and
// checks the answer is whole (not degraded).
func (t target) queryEpochs(body []byte) (epochs, error) {
	h, err := headFields(body)
	if err != nil {
		return nil, err
	}
	var degraded bool
	if raw, ok := h["degraded"]; ok {
		json.Unmarshal(raw, &degraded)
	}
	if degraded {
		return nil, fmt.Errorf("degraded answer")
	}
	if t.Routed {
		var v []uint64
		if err := json.Unmarshal(h["epochs"], &v); err != nil {
			return nil, fmt.Errorf("epochs: %w", err)
		}
		return v, nil
	}
	var e uint64
	if err := json.Unmarshal(h["epoch"], &e); err != nil {
		return nil, fmt.Errorf("epoch: %w", err)
	}
	return epochs{e}, nil
}

// ackBoard publishes the epochs of the writer's latest acknowledgment
// to the reader: an answer must cover every write acknowledged before
// the query was sent (submit→visible, observed from outside).
type ackBoard struct {
	mu sync.Mutex
	e  epochs
}

func (b *ackBoard) set(e epochs) {
	b.mu.Lock()
	b.e = e
	b.mu.Unlock()
}

func (b *ackBoard) get() epochs {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.e
}

// writerLog is what the writer saw: per-request latencies, how late
// each open-loop send was, and the batches acknowledged in order (the
// correctness mirror replays exactly these).
type writerLog struct {
	tally
	latMs    []float64
	lateMs   []float64
	updates  int // unit updates acknowledged as visible
	acked    []graph.Batch
	partial  int  // failed routed batches of which some shards applied their slice
	unknown  bool // a request failed in a way that leaves its effect unknown
	overCap  bool
	lateNote string
}

// post sends one batch with wait=1 and checks the acknowledgment.
func (w *writerLog) post(c *http.Client, t target, bb batchBody, board *ackBoard) bool {
	w.attempted++
	code, body, err := do(c, http.MethodPost, t.Base+"/update?wait=1", bb.Body)
	switch {
	case err != nil:
		w.unknown = true
		w.fail("update: %v", err)
		return false
	case code != http.StatusOK:
		w.fail("update: status %d: %.200s", code, body)
		if t.Routed {
			w.routedFailure(code, body, bb.B)
		} else if code/100 == 5 && code != http.StatusServiceUnavailable {
			w.unknown = true // 503 and 4xx mean "not accepted"
		}
		return false
	}
	e, applied, err := t.ackEpochs(body)
	if err != nil || !applied {
		w.unknown = true
		w.fail("update: bad ack (applied=%v, err=%v): %.200s", applied, err, body)
		return false
	}
	if prev := board.get(); !e.covers(prev) {
		w.fail("update: ack epochs %v went backwards from %v", e, prev)
		return false
	}
	board.set(e)
	w.acked = append(w.acked, bb.B)
	return true
}

// routedFailure accounts for a batch the router did not acknowledge.
// The router answers 503 when any shard shed its slice and 502 when any
// failed, even if other shards applied theirs; those applied slices are
// acknowledged state, so they join the correctness mirror. A shard that
// failed with an error may or may not have applied its slice. The
// routed workload's graph is directed, so the slices are disjoint and
// each edge's updates stay in order within one slice.
func (w *writerLog) routedFailure(code int, body []byte, b graph.Batch) {
	var r shard.RouterUpdateResult
	if json.Unmarshal(body, &r) != nil || len(r.PerShard) == 0 {
		// Refused before fan-out: nothing was routed on 503 or 4xx.
		if code/100 == 5 && code != http.StatusServiceUnavailable {
			w.unknown = true
		}
		return
	}
	slices := shard.SplitBatch(routedPart, true, b)
	var applied graph.Batch
	for _, ps := range r.PerShard {
		switch {
		case ps.Shard < 0 || ps.Shard >= len(slices):
			w.unknown = true
		case ps.Status == "applied" || ps.Status == "accepted":
			applied = append(applied, slices[ps.Shard]...)
		case ps.Status != "shed":
			w.unknown = true
		}
	}
	if len(applied) > 0 {
		w.acked = append(w.acked, applied)
		w.partial++
	}
}

// openLoop sends batches[i] at start + i*interval whether or not earlier
// requests have returned, over one connection: a send that is due while
// the previous request is in flight goes out late, and its latency is
// timed from when it was due, so a stall is charged to every request
// queued behind it.
func (w *writerLog) openLoop(c *http.Client, t target, batches []batchBody, start time.Time, interval time.Duration, board *ackBoard) {
	for i, bb := range batches {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		w.lateMs = append(w.lateMs, ms(time.Since(due)))
		if w.post(c, t, bb, board) {
			w.latMs = append(w.latMs, ms(time.Since(due)))
			w.updates += len(bb.B)
		}
	}
	w.overCap, w.lateNote = overCapacity(w.lateMs, interval)
}

// overCapacity reports whether an open-loop writer fell further and
// further behind its schedule: the median lateness of the last quarter
// of sends exceeds both 20 send intervals and four times that of the
// first quarter. A writer that only stalls briefly (a checkpoint) and
// catches up is not over capacity.
func overCapacity(lateMs []float64, interval time.Duration) (bool, string) {
	q := len(lateMs) / 4
	if q < 4 {
		return false, ""
	}
	first := median(lateMs[:q])
	last := median(lateMs[len(lateMs)-q:])
	limit := max(20*ms(interval), 4*first)
	note := fmt.Sprintf("median lateness first quarter %.3f ms, last quarter %.3f ms (limit %.3f ms)", first, last, limit)
	return last > limit, note
}

// closedLoop sends the next batch as soon as the previous one is
// acknowledged, until the deadline.
func (w *writerLog) closedLoop(c *http.Client, t target, next <-chan batchBody, deadline time.Time, board *ackBoard) {
	for time.Now().Before(deadline) {
		bb := <-next
		t0 := time.Now()
		if w.post(c, t, bb, board) {
			w.latMs = append(w.latMs, ms(time.Since(t0)))
			w.updates += len(bb.B)
		}
	}
}

// readerLog is what the reader saw.
type readerLog struct {
	tally
	latMs []float64
	prev  map[string]epochs
	turn  int // the closed loop's position in its rotation
}

// closedLoop queries the classes of cycle in rotation until the
// deadline; the next call resumes the rotation where this one stopped.
func (r *readerLog) closedLoop(c *http.Client, t target, cycle []string, deadline time.Time, board *ackBoard) {
	for ; time.Now().Before(deadline); r.turn++ {
		r.query(c, t, cycle[r.turn%len(cycle)], time.Now(), board)
	}
}

// paced sends query k of n at start + k*every, rotating through cycle.
// A query that is due while the previous one runs goes out late and is
// timed from when it was due. Every query is sent, so the sample count
// does not depend on the machine's speed.
func (r *readerLog) paced(c *http.Client, t target, cycle []string, start time.Time, every time.Duration, n int, board *ackBoard) {
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * every)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.query(c, t, cycle[k%len(cycle)], due, board)
	}
}

// query sends one query, timed from t0. The answer must cover the
// writes acknowledged before it was requested, and never go backwards
// for its class.
func (r *readerLog) query(c *http.Client, t target, algo string, t0 time.Time, board *ackBoard) {
	floor := board.get()
	if !t.Routed && floor != nil {
		floor = epochs{floor[indexOf(t.Algos, algo)]}
	}
	r.attempted++
	code, body, err := do(c, http.MethodGet, t.Base+"/query/"+algo, nil)
	lat := ms(time.Since(t0))
	if err != nil || code != http.StatusOK {
		r.fail("query %s: status %d err %v", algo, code, err)
		return
	}
	e, err := t.queryEpochs(body)
	if err != nil {
		r.fail("query %s: %v", algo, err)
		return
	}
	if !e.covers(r.prev[algo]) || !e.covers(floor) {
		r.fail("query %s: epochs %v behind earlier answer %v or acknowledged writes %v", algo, e, r.prev[algo], floor)
		return
	}
	r.prev[algo] = e
	r.latMs = append(r.latMs, lat)
}

func indexOf(xs []string, x string) int {
	for i, y := range xs {
		if y == x {
			return i
		}
	}
	return -1
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
