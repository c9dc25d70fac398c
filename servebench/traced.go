package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"incgraph/internal/graph"
	"incgraph/internal/obs"
	"incgraph/internal/serve"
	"incgraph/internal/shard"
	"incgraph/internal/wal"
)

// checkpointEvery is incgraphd's default checkpoint cadence, in
// ingested requests.
const checkpointEvery = 1024

// exchangeQueries is how many routed SSSP queries the traced run sends
// after its phase to measure the shard exchange.
const exchangeQueries = 5

// checkpointTimings is how many times the traced run times
// Durable.Checkpoint on each daemon after its measured phase.
const checkpointTimings = 3

// stack is the traced composition: the same serving stack incgraphd (or
// incrouter with two shard daemons) builds, assembled in this process
// through the same public API, with every layer boundary wrapped in a
// span.
type stack struct {
	sp       *spanStore
	tgt      target
	servers  []*http.Server
	services []*serve.Service
	durables []*serve.Durable
	dataDirs []string
	part     shard.Partitioner // nil for one daemon

	readS float64            // graph.ReadGraph of the workload's graph file
	initS map[string]float64 // per class: the batch run building its maintainer
}

// serveOn serves h on a fresh loopback port and returns its base URL.
func (st *stack) serveOn(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	st.servers = append(st.servers, srv)
	go srv.Serve(l) // returns ErrServerClosed when close shuts it down
	return "http://" + l.Addr().String(), nil
}

// composeStack builds the workload's topology in process, mirroring
// cmd/incgraphd's durable start-up (recovery, verify, host, OpenDurable)
// and, for routed, cmd/incrouter's router over two shard daemons.
func composeStack(w workload, in *inputs, dir string) (*stack, error) {
	st := &stack{sp: newSpanStore(), initS: map[string]float64{}}
	t0 := time.Now()
	f, err := os.Open(in.GraphPath)
	if err != nil {
		return nil, err
	}
	base, err := graph.Read(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	st.readS = time.Since(t0).Seconds()

	if !w.Routed {
		h, err := st.daemon(w, base, in.Pattern, filepath.Join(dir, "traced-data"), -1)
		if err != nil {
			st.close()
			return nil, err
		}
		url, err := st.serveOn(st.sp.handler("serve", -1, h))
		if err != nil {
			st.close()
			return nil, err
		}
		st.tgt = target{Base: url, Algos: w.Algos}
		return st, nil
	}
	part := routedPart
	st.part = part
	var addrs []string
	for i := 0; i < part.Shards(); i++ {
		h, err := st.daemon(w, shard.FilterGraph(base, part, i), nil, filepath.Join(dir, fmt.Sprintf("traced-shard-%d", i)), i)
		if err == nil {
			var url string
			url, err = st.serveOn(st.sp.handler("serve", i, h))
			addrs = append(addrs, url)
		}
		if err != nil {
			st.close()
			return nil, err
		}
	}
	rt, err := shard.NewRouter(shard.RouterOptions{
		Part: part, Table: shard.NewTable(addrs), Directed: base.Directed(), NumNodes: base.NumNodes(),
	})
	if err != nil {
		st.close()
		return nil, err
	}
	url, err := st.serveOn(st.sp.handler("router", -1, rt.Handler()))
	if err != nil {
		st.close()
		return nil, err
	}
	st.tgt = target{Base: url, Routed: true, Algos: w.Algos}
	return st, nil
}

// daemon assembles one durable incgraphd (shardID >= 0: one shard
// daemon) and returns its HTTP API.
func (st *stack) daemon(w workload, g, pattern *graph.Graph, dataDir string, shardID int) (http.Handler, error) {
	svc := serve.NewService()
	st.services = append(st.services, svc)
	rec, err := serve.LoadRecovery(dataDir)
	if err != nil {
		return nil, err
	}
	targets := make(map[string]serve.Serveable, len(w.Algos))
	for _, algo := range w.Algos {
		t0 := time.Now()
		m, err := newServeable(algo, g.Clone(), pattern)
		if err != nil {
			return nil, err
		}
		st.initS[algo] += time.Since(t0).Seconds()
		if err := rec.Restore(algo, m); err != nil {
			return nil, err
		}
		targets[algo] = &tracedServeable{Serveable: m, sp: st.sp, shard: shardID}
	}
	replayed, err := rec.Replay(targets, svc.Recorder())
	if err != nil {
		return nil, err
	}
	divergent := serve.VerifyRecovered(targets, svc.Recorder())
	for _, algo := range w.Algos {
		var o serve.Options // incgraphd's defaults
		o.BaseEpoch, o.BaseBatches = rec.Base(algo)
		if _, err := svc.Host(targets[algo], o); err != nil {
			return nil, err
		}
	}
	d, err := serve.OpenDurable(svc, dataDir, serve.DurableOptions{
		WAL:             wal.Options{Policy: wal.SyncAlways},
		CheckpointEvery: checkpointEvery,
	})
	if err != nil {
		return nil, err
	}
	st.durables = append(st.durables, d)
	st.dataDirs = append(st.dataDirs, dataDir)
	d.RecordRecovery(replayed, len(divergent))
	svc.SetJournal(&tracedJournal{inner: d, sp: st.sp, shard: shardID})
	if st.part != nil {
		shard.MountShardAPI(svc, st.part, shardID, g.NumNodes(), g.Directed(), nil)
		svc.Mount("/wal/", http.StripPrefix("/wal", d.Log().StreamHandler()))
	}
	return svc.Handler(), nil
}

// close stops the servers, then the durability layers, then the hosts
// (the order incgraphd's shutdown uses).
func (st *stack) close() {
	for _, s := range st.servers {
		s.Close()
	}
	for _, d := range st.durables {
		d.Close()
	}
	for _, s := range st.services {
		s.Close()
	}
}

// runTraced runs the workload against the traced composition with the
// same seed and traffic as the untraced run ext, and reports per-layer
// metrics.
func runTraced(w workload, in *inputs, dir string, seed int64, d time.Duration, ext *extRun) (*result, error) {
	st, err := composeStack(w, in, dir)
	if err != nil {
		return nil, err
	}
	defer st.close()
	s := newSession(w, in, st.tgt, seed)
	defer s.close()
	s.run(warmup)

	probe := newProbe(st)
	lo := st.sp.now()
	probe.start()
	ph := s.run(d)
	probe.stop()
	hi := st.sp.now()
	var exch []span
	if w.Routed {
		xr := &readerLog{prev: s.prevQuery}
		for i := 0; i < exchangeQueries; i++ {
			xr.query(s.rc, s.tgt, "sssp", time.Now(), &s.board)
		}
		exch = st.sp.window(hi, st.sp.now())
		s.attempted += xr.attempted
		s.failed += xr.failed
		s.errs = append(s.errs, xr.errs...)
	}
	// Time the checkpoint directly: the workloads' measured phases hold
	// no automatic one (see README.md, "Checkpoints").
	for i := 0; i < checkpointTimings; i++ {
		for _, dur := range st.durables {
			t0 := time.Now()
			if err := dur.Checkpoint(); err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
			probe.ckptMs = append(probe.ckptMs, ms(time.Since(t0)))
		}
	}
	checkErr := s.check(in)

	extAttempted, extFailed, extErrs, extCheckErr := ext.totals()
	res := &result{
		Correct:   checkErr == nil && extCheckErr == nil,
		Attempted: s.attempted + extAttempted,
		Failed:    s.failed + extFailed,
		Trace:     true,
		Workload:  w.Name,
	}
	layers(res, w, st, st.sp.window(lo, hi), exch, float64(hi-lo)/1e9, ph, probe, ext)
	if checkErr != nil {
		res.note = append(res.note, "CORRECTNESS (traced): "+checkErr.Error())
	}
	if extCheckErr != nil {
		res.note = append(res.note, "CORRECTNESS (untraced): "+extCheckErr.Error())
	}
	for _, e := range append(extErrs, s.errs...) {
		res.note = append(res.note, "error: "+e)
	}
	if ph.wr.overCap {
		return nil, fmt.Errorf("over capacity in the traced run (%s)", ph.wr.lateNote)
	}
	path := filepath.Join(filepath.Dir(dir), fmt.Sprintf("servebench-spans-%s-seed%d.json", w.Name, seed))
	if err := st.sp.writeFile(path); err != nil {
		return nil, err
	}
	res.note = append(res.note, "spans written to "+path)
	return res, nil
}

// probe samples, at the edges of the measured phase, what the layers
// only expose as running totals: registry snapshots, WAL segment sizes,
// and the process's runtime counters.
type probe struct {
	st       *stack
	regStart [][]obs.FamilySnapshot
	regEnd   [][]obs.FamilySnapshot
	rtStart  runtimeSample
	rtEnd    runtimeSample
	walStart map[string]int64
	walEnd   map[string]int64
	ckptMs   []float64 // timed Durable.Checkpoint calls after the phase
}

func newProbe(st *stack) *probe {
	return &probe{st: st, walStart: map[string]int64{}, walEnd: map[string]int64{}}
}

func (p *probe) snapshotRegs() [][]obs.FamilySnapshot {
	var out [][]obs.FamilySnapshot
	for _, s := range p.st.services {
		out = append(out, s.Registry().Snapshot())
	}
	return out
}

// walSizes records the size of every WAL segment in the data dirs.
func (p *probe) walSizes(into map[string]int64) {
	for _, dir := range p.st.dataDirs {
		ents, _ := os.ReadDir(dir)
		for _, e := range ents {
			if !strings.HasPrefix(e.Name(), "wal-") {
				continue
			}
			if fi, err := e.Info(); err == nil {
				into[filepath.Join(dir, e.Name())] = fi.Size()
			}
		}
	}
}

func (p *probe) start() {
	p.regStart = p.snapshotRegs()
	p.rtStart = readRuntime()
	p.walSizes(p.walStart)
}

func (p *probe) stop() {
	p.walSizes(p.walEnd)
	p.regEnd = p.snapshotRegs()
	p.rtEnd = readRuntime()
}

// walGrowth is the WAL bytes written during the phase, summed over
// segments. Segments are pruned only after a checkpoint, and no
// workload's phase holds one (wal.checkpoints reports it if one did).
func (p *probe) walGrowth() int64 {
	var n int64
	for k, v := range p.walEnd {
		n += v - p.walStart[k]
	}
	return n
}

// familyDelta sums, over services, a counter or gauge family's change
// between the phase edges.
func (p *probe) familyDelta(name string) float64 {
	var d float64
	for i := range p.regEnd {
		d += familySum(p.regEnd[i], name) - familySum(p.regStart[i], name)
	}
	return d
}

func familySum(fams []obs.FamilySnapshot, name string) float64 {
	for _, f := range fams {
		if f.Name == name {
			var v float64
			for _, s := range f.Series {
				v += s.Value
			}
			return v
		}
	}
	return 0
}

// histDelta merges a histogram family over series and services and
// subtracts its state at the phase start.
func (p *probe) histDelta(name string) obs.HistogramSnapshot {
	counts := map[int]int64{}
	var total int64
	var maxV float64
	for i := range p.regEnd {
		for sign, fams := range map[int64][]obs.FamilySnapshot{1: p.regEnd[i], -1: p.regStart[i]} {
			for _, f := range fams {
				if f.Name != name {
					continue
				}
				for _, s := range f.Series {
					if s.Hist == nil {
						continue
					}
					for _, b := range s.Hist.Buckets {
						counts[b.Index] += sign * int64(b.N)
					}
					total += sign * int64(s.Hist.Count)
					if sign > 0 {
						maxV = max(maxV, s.Hist.Max)
					}
				}
			}
		}
	}
	var h obs.HistogramSnapshot
	h.Count, h.Max = uint64(max(total, 0)), maxV
	for i, n := range counts {
		if n > 0 {
			h.Buckets = append(h.Buckets, obs.BucketCount{Index: i, N: uint64(n)})
		}
	}
	sort.Slice(h.Buckets, func(a, b int) bool { return h.Buckets[a].Index < h.Buckets[b].Index })
	return h
}
