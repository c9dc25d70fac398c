package shard

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"incgraph/internal/cc"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/serve"
	"incgraph/internal/sssp"
	"incgraph/internal/trace"
	"incgraph/internal/wal"
)

// startWALPrimary opens a WAL in its own directory and serves it over
// the streaming API the way a shard daemon does (under /wal/).
func startWALPrimary(t *testing.T) (*wal.Log, *httptest.Server) {
	t.Helper()
	l, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/wal/", http.StripPrefix("/wal", l.StreamHandler()))
	srv := httptest.NewServer(mux)
	t.Cleanup(func() { srv.Close(); l.Close() })
	return l, srv
}

// TestPullWALIncremental: shipping is idempotent and incremental — a
// second pull with nothing new moves zero bytes; appends (including
// across a segment rotation) ship only the new suffix.
func TestPullWALIncremental(t *testing.T) {
	l, srv := startWALPrimary(t)
	dir := t.TempDir()
	b := graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 1, W: 3}}
	if err := l.Append(wal.Record{Batch: b}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n1, err := PullWAL(ctx, nil, srv.URL, dir)
	if err != nil || n1 == 0 {
		t.Fatalf("first pull: n=%d err=%v", n1, err)
	}
	n2, err := PullWAL(ctx, nil, srv.URL, dir)
	if err != nil || n2 != 0 {
		t.Fatalf("idle pull moved %d bytes (err=%v)", n2, err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(wal.Record{Algo: "sssp", Batch: b}); err != nil {
		t.Fatal(err)
	}
	n3, err := PullWAL(ctx, nil, srv.URL, dir)
	if err != nil || n3 == 0 {
		t.Fatalf("post-rotation pull: n=%d err=%v", n3, err)
	}
	// The replica directory now mirrors the primary's segments.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) < 2 {
		t.Fatalf("replica dir has %d entries, want both segments", len(ents))
	}
	for _, e := range ents {
		fi, _ := e.Info()
		if fi.Size() == 0 {
			t.Fatalf("shipped segment %s is empty", e.Name())
		}
	}
}

// TestFollowerReplaysLiveStream: a Follower tailing a primary's WAL
// over HTTP converges its target maintainers to the primary's graph,
// with exact per-algo epoch accounting, including records appended
// while the follower is already running and across a rotation.
func TestFollowerReplaysLiveStream(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	base := gen.PowerLaw(rng, 120, 5, true)
	primary := base.Clone()

	l, srv := startWALPrimary(t)
	dir := t.TempDir()

	ssspInc := sssp.NewInc(base.Clone(), 0)
	ccInc := cc.NewInc(base.Clone())
	targets := map[string]serve.Serveable{
		"sssp": serve.SSSP(ssspInc, 0),
		"cc":   serve.CC(ccInc),
	}
	f := NewFollower(FollowerOptions{
		Source:   srv.URL,
		Dir:      dir,
		Targets:  targets,
		Interval: 10 * time.Millisecond,
	})
	go f.Run()

	var wantUnits uint64
	appendBatch := func(count int) {
		b := gen.RandomUpdates(rng, primary, count, 0.5)
		primary.Apply(b)
		if err := l.Append(wal.Record{Batch: b}); err != nil {
			t.Fatal(err)
		}
		wantUnits += uint64(len(b))
	}
	appendBatch(30)
	appendBatch(30)
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendBatch(30)

	deadline := time.Now().Add(10 * time.Second)
	for {
		ep := f.Epochs()
		if ep["sssp"] == wantUnits && ep["cc"] == wantUnits {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at epochs %v, want %d (status %+v)", ep, wantUnits, f.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.Stop()

	for _, algo := range []string{"sssp", "cc"} {
		if v, _ := f.View(algo); v.Batches != 3 {
			t.Fatalf("%s batch accounting %d, want 3", algo, v.Batches)
		}
	}
	st := f.Status()
	if st.Records != 3 || st.ShippedBytes == 0 || st.LastError != "" {
		t.Fatalf("status %+v", st)
	}

	// After Stop the targets are exclusively ours: both maintainers must
	// hold exactly the primary's graph and agree with a full recompute.
	if ssspInc.Graph().NumEdges() != primary.NumEdges() {
		t.Fatalf("replica sssp graph has %d edges, primary %d", ssspInc.Graph().NumEdges(), primary.NumEdges())
	}
	wantDist := sssp.Dijkstra(primary, 0)
	gotDist := ssspInc.Dist()
	for v := range wantDist {
		if gotDist[v] != wantDist[v] {
			t.Fatalf("replayed dist[%d] = %d, want %d", v, gotDist[v], wantDist[v])
		}
	}
	wantLabels := cc.CCfp(primary)
	gotLabels := ccInc.Labels()
	for v := range wantLabels {
		if gotLabels[v] != wantLabels[v] {
			t.Fatalf("replayed label[%d] = %d, want %d", v, gotLabels[v], wantLabels[v])
		}
	}
}

// TestFollowerFromCheckpoint: a replica bootstrapped from a primary that
// checkpointed mid-stream (PullWAL → LoadRecovery → Follower) restores
// the checkpoint, replays only the records after it — including ones
// appended while it follows and ones targeted at a single algo — and
// ends at the primary's per-algo stream positions with every answer
// equal to the primary's and to a batch recompute.
func TestFollowerFromCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	base := gen.PowerLaw(rng, 150, 5, true)
	svc := serve.NewService()
	for _, m := range []serve.Serveable{
		serve.SSSP(sssp.NewInc(base.Clone(), 0), 0),
		serve.CC(cc.NewInc(base.Clone())),
	} {
		if _, err := svc.Host(m, serve.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	d, err := serve.OpenDurable(svc, t.TempDir(), serve.DurableOptions{
		WAL: wal.Options{Policy: wal.SyncAlways},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Mount("/wal/", http.StripPrefix("/wal", d.Log().StreamHandler()))
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { srv.Close(); svc.Close(); d.Close() })

	// ref carries every batch, which is what sssp sees; cc sees only the
	// broadcast ones. acked/records are the acknowledged raw updates and
	// records per algo.
	ref := base.Clone()
	acked := map[string]uint64{}
	records := map[string]uint64{}
	ingest := func(algo string, count int) {
		b := gen.RandomUpdates(rng, ref, count, 0.5)
		ref.Apply(b)
		hosts := svc.Hosts()
		if algo != "" {
			hosts = []*serve.Host{svc.Get(algo)}
		}
		if err := d.Ingest(hosts, algo, b, trace.TraceID{}, true); err != nil {
			t.Fatal(err)
		}
		for _, h := range hosts {
			acked[h.Algo()] += uint64(len(b))
			records[h.Algo()]++
		}
	}
	ingest("", 25)
	ingest("sssp", 10)
	ingest("", 25)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	atCheckpoint := map[string]uint64{"sssp": acked["sssp"], "cc": acked["cc"]}
	ingest("", 25)
	ingest("sssp", 10)

	dir := t.TempDir()
	if _, err := PullWAL(context.Background(), nil, srv.URL, dir); err != nil {
		t.Fatal(err)
	}
	rec, err := serve.LoadRecovery(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ReplayFrom == 0 || len(rec.Algos) != 2 {
		t.Fatalf("replica did not load the shipped checkpoint: replay_from %d, algos %d", rec.ReplayFrom, len(rec.Algos))
	}
	targets := map[string]serve.Serveable{}
	for algo, ra := range rec.Algos {
		if ra.Epoch != atCheckpoint[algo] {
			t.Fatalf("checkpoint %s epoch %d, want %d", algo, ra.Epoch, atCheckpoint[algo])
		}
		var m serve.Serveable = serve.CC(cc.NewInc(ra.Graph))
		if algo == "sssp" {
			m = serve.SSSP(sssp.NewInc(ra.Graph, 0), 0)
		}
		if err := rec.Restore(algo, m); err != nil {
			t.Fatal(err)
		}
		targets[algo] = m
	}
	f := NewFollower(FollowerOptions{
		Source:   srv.URL,
		Dir:      dir,
		Targets:  targets,
		Recovery: rec,
		Interval: 10 * time.Millisecond,
	})
	go f.Run()
	ingest("", 25)
	ingest("sssp", 10)

	deadline := time.Now().Add(10 * time.Second)
	for !reflect.DeepEqual(f.Epochs(), acked) {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at epochs %v, want %v (status %+v)", f.Epochs(), acked, f.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.Stop()

	// Only the four records after the checkpoint were replayed.
	if st := f.Status(); st.Records != 4 || st.LastError != "" {
		t.Fatalf("status %+v, want 4 replayed records", st)
	}
	for algo, want := range acked {
		v, _ := f.View(algo)
		pv := svc.Get(algo).View()
		if v.Epoch != want || v.Batches != records[algo] || pv.Epoch != want {
			t.Fatalf("%s: replica at epoch %d batches %d, primary at %d; want %d and %d",
				algo, v.Epoch, v.Batches, pv.Epoch, want, records[algo])
		}
		if !reflect.DeepEqual(v.Data, pv.Data) {
			t.Fatalf("%s: replica answer differs from the primary's", algo)
		}
	}
	if div := serve.VerifyRecovered(targets, nil); len(div) > 0 {
		t.Fatalf("replayed answers diverge from batch recompute: %v", div)
	}
}

// TestFollowerSurvivesDeadPrimary: pulls fail, the error is surfaced in
// Status, and Stop still drains cleanly.
func TestFollowerSurvivesDeadPrimary(t *testing.T) {
	f := NewFollower(FollowerOptions{
		Source:   "http://127.0.0.1:1", // nothing listens here
		Dir:      t.TempDir(),
		Targets:  map[string]serve.Serveable{},
		Interval: 5 * time.Millisecond,
	})
	go f.Run()
	deadline := time.Now().Add(5 * time.Second)
	for f.Status().LastError == "" {
		if time.Now().After(deadline) {
			t.Fatal("pull failure never surfaced")
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.Stop()
}
