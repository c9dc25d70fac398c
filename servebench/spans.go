package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
	"incgraph/internal/serve"
	"incgraph/internal/trace"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around the stack's public entry points.
type span struct {
	Layer string        `json:"layer"` // router | serve | ingest | apply | publish
	Kind  string        `json:"kind"`  // update | query | eval | other, or the class for apply/publish
	Shard int           `json:"shard"` // -1 outside a shard
	Trace trace.TraceID `json:"-"`
	TID   string        `json:"trace,omitempty"`
	Lo    int64         `json:"lo_ns"` // since the store's origin
	Hi    int64         `json:"hi_ns"`
	Bytes int64         `json:"bytes,omitempty"`       // response body bytes (handlers)
	Req   int64         `json:"req_bytes,omitempty"`   // request body bytes (handlers)
	EOF   int64         `json:"body_eof_ns,omitempty"` // when the handler had read its request body to the end

	// Apply spans carry the maintainer's ApplyResult accounting.
	HasStats bool    `json:"-"`
	HMs      float64 `json:"h_ms,omitempty"`
	ResumeMs float64 `json:"resume_ms,omitempty"`
	Work     int64   `json:"work,omitempty"`
	LedDelta int64   `json:"ledger_delta,omitempty"`
}

func (s span) iv() interval { return interval{s.Lo, s.Hi} }

// spanStore keeps every span in memory; they are written out once, when
// the traced run ends.
type spanStore struct {
	t0   time.Time
	mu   sync.Mutex
	list []span
}

func newSpanStore() *spanStore { return &spanStore{t0: time.Now()} }

func (s *spanStore) now() int64 { return int64(time.Since(s.t0)) }

func (s *spanStore) add(sp span) {
	s.mu.Lock()
	s.list = append(s.list, sp)
	s.mu.Unlock()
}

// window returns the spans that lie wholly inside [lo, hi].
func (s *spanStore) window(lo, hi int64) []span {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []span
	for _, sp := range s.list {
		if sp.Lo >= lo && sp.Hi <= hi {
			out = append(out, sp)
		}
	}
	return out
}

// writeFile dumps every span as JSON.
func (s *spanStore) writeFile(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.list {
		if !s.list[i].Trace.IsZero() {
			s.list[i].TID = s.list[i].Trace.String()
		}
	}
	b, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// countWriter counts the response body bytes a handler writes.
type countWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

func requestKind(r *http.Request) string {
	switch p := r.URL.Path; {
	case r.Method == http.MethodPost && p == "/update":
		return "update"
	case r.Method == http.MethodGet && len(p) > 7 && p[:7] == "/query/":
		return "query"
	case r.Method == http.MethodPost && len(p) > 12 && p[:12] == "/shard/eval/":
		return "eval"
	}
	return "other"
}

// eofReader notes when its reader first returns io.EOF: for POST
// /update, the moment graph.ReadBatch finished reading the body, so the
// span from the handler's start to it is the decode.
type eofReader struct {
	io.ReadCloser
	s   *spanStore
	eof int64
}

func (e *eofReader) Read(p []byte) (int, error) {
	n, err := e.ReadCloser.Read(p)
	if err == io.EOF && e.eof == 0 {
		e.eof = e.s.now()
	}
	return n, err
}

// handler wraps an http.Handler in a span keyed by the request's
// traceparent trace ID (the router forwards it to the shards it calls,
// so a request's router and shard spans share it).
func (s *spanStore) handler(layer string, shardID int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tid, _ := trace.ParseTraceparent(r.Header.Get("traceparent"))
		cw := &countWriter{ResponseWriter: w}
		body := &eofReader{ReadCloser: r.Body, s: s}
		r.Body = body
		lo := s.now()
		h.ServeHTTP(cw, r)
		s.add(span{Layer: layer, Kind: requestKind(r), Shard: shardID, Trace: tid,
			Lo: lo, Hi: s.now(), Bytes: cw.n, Req: max(r.ContentLength, 0), EOF: body.eof})
	})
}

// tracedJournal wraps the durable ingest path (WAL append, submit,
// wait for every target's apply) in a span.
type tracedJournal struct {
	inner serve.Journal
	sp    *spanStore
	shard int
}

func (j *tracedJournal) Ingest(targets []*serve.Host, algo string, b graph.Batch, tid trace.TraceID, wait bool) error {
	lo := j.sp.now()
	err := j.inner.Ingest(targets, algo, b, tid, wait)
	j.sp.add(span{Layer: "ingest", Kind: "update", Shard: j.shard, Trace: tid, Lo: lo, Hi: j.sp.now()})
	return err
}

// tracedServeable wraps a maintainer, timing Apply (with its ApplyResult
// ledger) and Snapshot (the publish copy). The optional extensions the
// host probes for are forwarded, so the host treats the wrapped
// maintainer exactly as it would the bare one.
type tracedServeable struct {
	serve.Serveable
	sp    *spanStore
	shard int
}

func (t *tracedServeable) Apply(b graph.Batch) serve.ApplyResult {
	lo := t.sp.now()
	res := t.Serveable.Apply(b)
	sp := span{Layer: "apply", Kind: t.Algo(), Shard: t.shard, Lo: lo, Hi: t.sp.now()}
	if res.HasStats {
		sp.HasStats, sp.HMs, sp.ResumeMs = true, res.Stats.HSeconds*1e3, res.Stats.ResumeSeconds*1e3
	}
	if res.HasLedger {
		sp.Work, sp.LedDelta = res.Ledger.Work(), res.Ledger.Delta
	}
	t.sp.add(sp)
	return res
}

func (t *tracedServeable) Snapshot() any {
	lo := t.sp.now()
	v := t.Serveable.Snapshot()
	t.sp.add(span{Layer: "publish", Kind: t.Algo(), Shard: t.shard, Lo: lo, Hi: t.sp.now()})
	return v
}

func (t *tracedServeable) SetTracer(tr fixpoint.Tracer) {
	if s, ok := t.Serveable.(interface{ SetTracer(fixpoint.Tracer) }); ok {
		s.SetTracer(tr)
	}
}

func (t *tracedServeable) SetWorkers(n int) {
	if s, ok := t.Serveable.(interface{ SetWorkers(int) }); ok {
		s.SetWorkers(n)
	}
}

func (t *tracedServeable) SetCompactThreshold(v float64) {
	if s, ok := t.Serveable.(interface{ SetCompactThreshold(float64) }); ok {
		s.SetCompactThreshold(v)
	}
}

func (t *tracedServeable) ParStats() fixpoint.ParStats {
	if s, ok := t.Serveable.(interface{ ParStats() fixpoint.ParStats }); ok {
		return s.ParStats()
	}
	return fixpoint.ParStats{}
}
