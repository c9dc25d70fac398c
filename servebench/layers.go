package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"time"

	"incgraph/internal/graph"
	"incgraph/internal/shard"
)

// allClasses are the six query classes; every traced run reports every
// class's metrics, 0 for a class the workload does not host.
var allClasses = []string{"sssp", "cc", "sim", "dfs", "lcc", "bc"}

// engineClasses run on the fixpoint engine and report its h/resume split.
var engineClasses = []string{"sssp", "cc", "sim"}

// runtimeSample is the traced process's runtime counters.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2)}
}

// byKey groups handler spans by (trace ID, shard).
type spanKey struct {
	tid   [16]byte
	shard int
}

// layers computes the per-layer metrics of one traced phase of wall
// length secs from its spans, the probe's counter deltas, and timings of
// the layers' public functions on the phase's own request bodies. exch
// holds the spans of the routed SSSP queries sent after the phase.
func layers(res *result, w workload, st *stack, sps, exch []span, secs float64, ph phaseResult, p *probe, ext *extRun) {
	var updates, queries, routerUpd, routerQry []span
	var ingests []span
	applies := map[string][]span{}
	publishes := map[string][]span{}
	shardSpans := map[[16]byte][]span{} // shard handler spans by trace, for the router's children
	ingestOf := map[spanKey]span{}
	var applyPub []span
	for _, sp := range sps {
		switch sp.Layer {
		case "serve":
			switch sp.Kind {
			case "update":
				updates = append(updates, sp)
			case "query":
				queries = append(queries, sp)
			}
			if sp.Shard >= 0 {
				shardSpans[sp.Trace] = append(shardSpans[sp.Trace], sp)
			}
		case "router":
			switch sp.Kind {
			case "update":
				routerUpd = append(routerUpd, sp)
			case "query":
				routerQry = append(routerQry, sp)
			}
		case "ingest":
			ingests = append(ingests, sp)
			ingestOf[spanKey{sp.Trace, sp.Shard}] = sp
		case "apply":
			applies[sp.Kind] = append(applies[sp.Kind], sp)
			applyPub = append(applyPub, sp)
		case "publish":
			publishes[sp.Kind] = append(publishes[sp.Kind], sp)
			applyPub = append(applyPub, sp)
		}
	}
	durMs := func(xs []span) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = float64(x.Hi-x.Lo) / 1e6
		}
		return out
	}
	// The apply and publish spans a request waits on: those of its own
	// daemon inside its ingest span. One writer connection means at most
	// one update is in flight per daemon, so every apply inside an ingest
	// span belongs to it.
	applyPubBy := map[int][]interval{}
	for _, sp := range applyPub {
		applyPubBy[sp.Shard] = append(applyPubBy[sp.Shard], sp.iv())
	}

	// graph layer.
	acked := ph.wr.acked
	decodeUs, netUs, nUpd := timeDecode(acked, w.Directed)
	res.add("graph.read_s", st.readS, "s", 1, "graph.Read of the workload's graph file")
	res.add("graph.decode_us_per_update", decodeUs, "us", nUpd, "graph.ReadBatch over the phase's request bodies")
	res.add("graph.net_us_per_update", netUs, "us", nUpd, "Batch.Net over the phase's batches")

	// Classes and the fixpoint engine.
	for _, c := range allClasses {
		as, ps := applies[c], publishes[c]
		hosted := indexOf(w.Algos, c) >= 0
		note := func(s string) string {
			if !hosted {
				return "not hosted on this workload"
			}
			return s
		}
		ad := summarize(durMs(as))
		var busy, work, delta float64
		for _, a := range as {
			busy += float64(a.Hi-a.Lo) / 1e9
			work += float64(a.Work)
			delta += float64(a.LedDelta)
		}
		loops := 1.0
		if st.part != nil {
			loops = float64(st.part.Shards())
		}
		bf := ratio{busy, secs * loops, "s in Apply", fmt.Sprintf("s of phase x %g apply loop(s)", loops)}
		wpd := ratio{work, delta, "ledger work", "ledger |dG|"}
		res.add(c+".init_s", st.initS[c], "s", boolInt(hosted), note("NewInc batch run (summed over shards)"))
		res.add(c+".apply_ms_p50", ad.P50, "ms", ad.N, note("Serveable.Apply"))
		res.add(c+".apply_busy_frac", bf.Value(), "ratio", ad.N, note(bf.Base()))
		res.add(c+".work_per_delta", wpd.Value(), "ratio", ad.N, note(wpd.Base()))
		pd := summarize(durMs(ps))
		res.add(c+".publish_ms_p50", pd.P50, "ms", pd.N, note("Serveable.Snapshot, the published copy"))
	}
	for _, c := range engineClasses {
		var h, r float64
		n := 0
		for _, a := range applies[c] {
			if a.HasStats {
				h += a.HMs
				r += a.ResumeMs
				n++
			}
		}
		hr := ratio{h, float64(n), "ms in h", "applies"}
		rr := ratio{r, float64(n), "ms in resume", "applies"}
		res.add("fixpoint."+c+".h_ms_per_apply", hr.Value(), "ms", n, hr.Base())
		res.add("fixpoint."+c+".resume_ms_per_apply", rr.Value(), "ms", n, rr.Base())
	}

	// serve: the daemon's HTTP API (for routed, the shard daemons').
	ud, qd := summarize(durMs(updates)), summarize(durMs(queries))
	res.add("serve.update_server_ms_p50", ud.P50, "ms", ud.N, "Service.Handler, POST /update")
	res.add("serve.update_server_ms_p99", ud.Tail, "ms", ud.N, tailNote(ud))
	res.add("serve.query_server_ms_p50", qd.P50, "ms", qd.N, "Service.Handler, GET /query/{class}")
	var qb float64
	for _, q := range queries {
		qb += float64(q.Bytes)
	}
	qbr := ratio{qb, float64(len(queries)), "response bytes", "queries"}
	res.add("serve.query_bytes", qbr.Value(), "bytes", len(queries), qbr.Base())
	var selfMs []float64
	for _, ig := range ingests {
		selfMs = append(selfMs, float64(selfTime(ig.iv(), applyPubBy[ig.Shard]))/1e6)
	}
	is := summarize(selfMs)
	res.add("serve.ingest_self_ms_p50", is.P50, "ms", is.N, "Journal.Ingest minus the apply/publish spans inside it (WAL append/fsync, queue, coalesce)")
	qw := p.histDelta("incgraph_queue_wait_seconds")
	res.add("serve.queue_wait_ms_p50", qw.Quantile(0.5)*1e3, "ms", int(qw.Count), "incgraph_queue_wait_seconds delta")
	res.add("serve.queue_wait_ms_p99", qw.Quantile(0.99)*1e3, "ms", int(qw.Count), "incgraph_queue_wait_seconds delta, p99 of the bucketed histogram")
	applied, batches, coal := p.familyDelta("incgraph_updates_applied_total"), p.familyDelta("incgraph_batches_applied_total"), p.familyDelta("incgraph_updates_coalesced_total")
	rpa := ratio{applied, batches, "raw updates applied", "Apply calls"}
	cf := ratio{coal, applied, "updates coalesced away", "raw updates applied"}
	res.add("serve.raw_updates_per_apply", rpa.Value(), "count", int(batches), rpa.Base())
	res.add("serve.coalesced_frac", cf.Value(), "ratio", int(applied), cf.Base())

	// The update path, accounted per request (means, so the parts add
	// up): handler = decode (start to body EOF) + ingest self +
	// apply/publish + the rest (validation, response, scheduling).
	var hSum, decSum, igSum, apSum float64
	matched := 0
	for _, u := range updates {
		ig, ok := ingestOf[spanKey{u.Trace, u.Shard}]
		if !ok || u.EOF == 0 {
			continue
		}
		matched++
		hSum += float64(u.Hi-u.Lo) / 1e6
		decSum += float64(u.EOF-u.Lo) / 1e6
		igSum += float64(ig.Hi-ig.Lo) / 1e6
		apSum += float64(covered(ig.iv(), applyPubBy[u.Shard])) / 1e6
	}
	if matched > 0 {
		m := float64(matched)
		rest := (hSum - decSum - igSum) / m
		res.add("serve.update_unaccounted_ms_mean", rest, "ms", matched,
			fmt.Sprintf("update path, mean per request: handler %.4f = decode %.4f + ingest self %.4f + apply/publish %.4f + unaccounted %.4f ms",
				hSum/m, decSum/m, (igSum-apSum)/m, apSum/m, rest))
	} else {
		res.add("serve.update_unaccounted_ms_mean", 0, "ms", 0, "no update requests")
	}

	// wal.
	fs := p.familyDelta("incgraph_wal_fsyncs_total")
	fpr := ratio{fs, float64(len(ph.wr.latMs)), "fsyncs", "update requests acked"}
	bpu := ratio{float64(p.walGrowth()), float64(ph.wr.updates), "WAL segment bytes written", "unit updates acked"}
	ck := summarize(p.ckptMs)
	res.add("wal.fsyncs_per_request", fpr.Value(), "ratio", len(ph.wr.latMs), fpr.Base())
	res.add("wal.bytes_per_update", bpu.Value(), "bytes", ph.wr.updates, bpu.Base())
	res.add("wal.checkpoint_ms_p50", ck.P50, "ms", ck.N, "Durable.Checkpoint, timed after the phase")
	res.add("wal.checkpoints", p.familyDelta("incgraph_checkpoints_total"), "count", 1, "automatic checkpoints during the phase")

	// shard: the router over its shard daemons.
	splitUs := 0.0
	if st.part != nil {
		splitUs = timeSplit(st.part, w.Directed, acked)
	}
	res.add("shard.split_us_per_update", splitUs, "us", nUpd, "shard.SplitBatch over the phase's batches")
	var rSelf, fan, qSelf []float64
	for _, r := range routerUpd {
		kids := shardSpans[r.Trace]
		rSelf = append(rSelf, float64(selfTime(r.iv(), ivs(kids)))/1e6)
		fan = append(fan, float64(covered(r.iv(), ivs(kids)))/1e6)
	}
	for _, r := range routerQry {
		qSelf = append(qSelf, float64(selfTime(r.iv(), ivs(shardSpans[r.Trace])))/1e6)
	}
	rs, fo, qs := summarize(rSelf), summarize(fan), summarize(qSelf)
	res.add("shard.router_update_self_ms_p50", rs.P50, "ms", rs.N, "router update span minus the shard update spans under it")
	res.add("shard.fanout_ms_p50", fo.P50, "ms", fo.N, "union of the shard update spans under each router update")
	res.add("shard.router_query_self_ms_p50", qs.P50, "ms", qs.N, "router query span minus the shard spans under it (the phase's CC queries)")
	var sssp []span
	evals := map[[16]byte][]span{}
	for _, sp := range exch {
		switch {
		case sp.Layer == "router" && sp.Kind == "query":
			sssp = append(sssp, sp)
		case sp.Layer == "serve" && sp.Kind == "eval":
			evals[sp.Trace] = append(evals[sp.Trace], sp)
		}
	}
	var evalN, evalBytes float64
	for _, r := range sssp {
		for _, k := range evals[r.Trace] {
			evalN++
			evalBytes += float64(k.Bytes + k.Req)
		}
	}
	er := ratio{evalN, float64(len(sssp)), "/shard/eval calls", "routed SSSP queries after the phase"}
	eb := ratio{evalBytes, float64(len(sssp)), "/shard/eval request+response bytes", "routed SSSP queries after the phase"}
	res.add("shard.exchange_rounds_per_query", er.Value(), "count", len(sssp), er.Base())
	res.add("shard.exchange_bytes_per_query", eb.Value(), "bytes", len(sssp), eb.Base())

	// runtime of the traced process (load generator included).
	al := ratio{p.rtEnd.allocBytes - p.rtStart.allocBytes, float64(ph.wr.updates), "bytes allocated in process", "unit updates acked"}
	gc := ratio{p.rtEnd.gcCPU - p.rtStart.gcCPU, p.rtEnd.totalCPU - p.rtStart.totalCPU, "GC cpu-s", "process cpu-s"}
	res.add("runtime.alloc_bytes_per_update", al.Value(), "bytes", ph.wr.updates, al.Base())
	res.add("runtime.gc_cpu_frac", gc.Value(), "ratio", 1, gc.Base())

	// Validity checks.
	late := summarize(ph.wr.lateMs)
	lateNote := "closed-loop writer: no schedule"
	if late.N > 0 {
		lateNote = "open-loop send lateness, " + tailNote(late)
	}
	res.add("loadgen.late_ms_p99", late.Tail, "ms", late.N, lateNote)
	tu, uu := summarize(ph.wr.latMs), summarize(ext.best.phase.wr.latMs)
	ov := ratio{tu.P50 - uu.P50, uu.P50, "traced minus untraced update_p50_ms", "untraced update_p50_ms"}
	res.add("trace.overhead_frac", ov.Value(), "ratio", tu.N, ov.Base())
	res.note = append(res.note, fmt.Sprintf("traced phase %.3f s: %d update requests, %d queries, %d spans", secs, len(ph.wr.latMs), len(ph.rd.latMs), len(sps)))
	res.note = append(res.note, fmt.Sprintf("machine: %.1f%% of CPU time stolen by the hypervisor during the traced phase, %.1f%% during the untraced one", 100*ph.stealFrac, 100*ext.best.phase.stealFrac))
}

func ivs(xs []span) []interval {
	out := make([]interval, len(xs))
	for i, x := range xs {
		out[i] = x.iv()
	}
	return out
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// decodeSample caps the updates re-decoded for the graph-layer timings.
const decodeSample = 200000

// timeDecode times graph.ReadBatch and Batch.Net, per unit update, on
// the request bodies of (up to decodeSample updates of) the acked
// batches.
func timeDecode(acked []graph.Batch, directed bool) (decodeUs, netUs float64, n int) {
	var bodies [][]byte
	for _, b := range acked {
		if n >= decodeSample {
			break
		}
		bodies = append(bodies, encodeBatch(b).Body)
		n += len(b)
	}
	if n == 0 {
		return 0, 0, 0
	}
	decoded := make([]graph.Batch, len(bodies))
	t0 := time.Now()
	for i, body := range bodies {
		decoded[i], _ = graph.ReadBatch(bytes.NewReader(body))
	}
	decodeUs = float64(time.Since(t0).Microseconds()) / float64(n)
	t0 = time.Now()
	for _, b := range decoded {
		b.Net(directed)
	}
	netUs = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
	return decodeUs, netUs, n
}

// timeSplit times shard.SplitBatch per unit update on the acked batches.
func timeSplit(p shard.Partitioner, directed bool, acked []graph.Batch) float64 {
	n := 0
	t0 := time.Now()
	for _, b := range acked {
		shard.SplitBatch(p, directed, b)
		n += len(b)
	}
	if n == 0 {
		return 0
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
}
