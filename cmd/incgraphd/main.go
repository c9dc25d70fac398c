// Command incgraphd is a resident incremental-graph service: it pays the
// batch fixpoint cost once at startup, then keeps the hosted query
// classes' answers current while ingesting a stream of update batches
// over HTTP — the serving setting where incrementalization pays off.
//
// Usage:
//
//	incgraphd -graph g.txt -algos sssp,cc [-src 0] [-listen :8356]
//	incgraphd -gen powerlaw -nodes 10000 -deg 8 -algos cc,lcc,bc
//	incgraphd -graph g.txt -algos sim -pattern q.txt
//	incgraphd -graph g.txt -algos cc -log-level debug -debug-addr :6060
//	incgraphd -graph g.txt -algos cc -access-log
//	incgraphd -graph g.txt -algos sssp,cc -data-dir /var/lib/incgraph
//	incgraphd -graph g.txt -algos sssp,cc -workers 4
//	incgraphd -graph g.txt -algos sssp,cc -shard-id 0 -shards 2 -data-dir d0
//	incgraphd -graph g.txt -algos sssp,cc -shard-id 0 -shards 2 \
//	    -replica-of http://127.0.0.1:8356 -data-dir d0r
//
// The full flag reference lives in README.md ("incgraphd flag
// reference"); a test diffs that table against the flag definitions here,
// so the two cannot drift.
//
// API:
//
//	POST /update[?algo=<name>][&wait=1]  batch text body ("+ u v w" / "- u v [w]")
//	GET  /query/{algo}                   current snapshot view (JSON)
//	GET  /stats                          per-maintainer serving counters (JSON)
//	GET  /metrics                        Prometheus text exposition
//	GET  /debug/applies[?algo=<name>]    recent apply trace events (JSON)
//	GET  /debug/trace                    flight recording, Chrome trace_event JSON
//	GET  /healthz                        liveness
//
// The daemon keeps a bounded flight recorder of spans — batch lifecycle
// (queue wait, coalesce, apply, publish) plus the fixpoint engine's h and
// resume phases with per-round events — dumped by GET /debug/trace in a
// format Perfetto loads directly. POST /update accepts a W3C traceparent
// header; the trace ID rides through the submission queue onto the apply
// and shows up in the spans, the debug log, and the access log, so one
// request can be followed end to end. -access-log turns on one slog line
// per HTTP request (method, path, status, duration, trace ID).
//
// With -debug-addr set, a second listener serves net/http/pprof profiles
// and expvar counters (/debug/pprof/, /debug/vars) — kept off the main
// listener so profiling endpoints are never exposed on the service port.
//
// Each hosted maintainer owns a private copy of the graph behind a
// single-writer apply loop; updates are validated, coalesced and batched
// before one Apply call. On SIGINT/SIGTERM the daemon stops accepting
// requests, drains every apply queue, and exits.
//
// With -workers n (n >= 2), maintainers that support the parallel
// execution mode (sssp, cc) partition each repair round's frontier
// across n workers; results are deterministic and identical to the
// sequential mode, and /stats reports the per-host worker counters.
// Other classes ignore the flag and stay sequential.
//
// With -data-dir set the daemon is durable: every accepted update batch
// is write-ahead-logged (fsync policy per -fsync) before it is
// acknowledged, and checkpoints of each maintainer's graph + incremental
// state are taken every -checkpoint-every ingests and on SIGTERM
// (checkpoint-on-drain). On startup the daemon recovers: it restores the
// latest checkpoint, replays the WAL tail through the incremental Apply
// path, and (unless -verify-recovery=false) verifies the replayed answers
// against a batch recompute, repairing and counting any divergence. A
// kill -9 at any moment therefore loses nothing acknowledged under
// -fsync always, and restart reproduces exactly the from-scratch answers
// over the durable prefix.
//
// With -shard-id i -shards n the daemon serves one fragment of a
// partitioned deployment: it keeps only the edges the hash partitioner
// assigns to shard i (all node ids remain valid), answers /query over
// its fragment, and mounts the shard-side exchange API (/shard/info,
// /shard/eval/{algo}) that the incrouter front-end drives cross-shard
// answers through. With -data-dir the fragment's WAL is additionally
// exposed under /wal/ for log-shipping replicas.
//
// With -replica-of URL the daemon is a warm replica: it continuously
// ships the primary's WAL segments into its own -data-dir (required)
// and replays every record through the recovery path, staying one poll
// interval behind. It serves only /healthz, /shard/info,
// /replica/status, stale degraded reads on GET /query/{algo} (the
// router's fallback while a primary's breaker is open), and the
// observability surface (/metrics,
// /metrics.json with live replication-lag gauges, /debug/trace with
// per-record replay spans) until POST /replica/promote, which seals the follower
// loop, hosts the replayed maintainers at the shipped stream position,
// opens the local WAL for writing, and atomically swaps in the full
// serving API. Replication is asynchronous: updates the primary
// acknowledged but had not shipped are lost on promotion, which the
// epoch vector makes visible to the router.
package main

import (
	"context"
	"encoding/json"
	"errors"
	_ "expvar" // registers /debug/vars on the -debug-addr listener
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -debug-addr listener
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"incgraph"
	"incgraph/internal/shard"
)

// cliFlags holds every incgraphd flag value. newFlags registers the
// definitions on a caller-supplied FlagSet, so tests instantiate exactly
// the flag set main parses — the README flag-reference test diffs its
// table against these definitions.
type cliFlags struct {
	listen    string
	graphPath string
	algos     string
	src       int
	pattern   string

	genKind   string
	genNodes  int
	genDeg    int
	genDirect bool
	genSeed   int64

	maxBatch int
	maxWait  time.Duration
	queue    int
	workers  int

	logLevel  string
	debugAddr string
	accessLog bool

	dataDir       string
	fsync         string
	fsyncInterval time.Duration
	ckptEvery     int
	verifyRec     bool

	shardID   int
	shards    int
	replicaOf string
}

// newFlags defines the daemon's flags on fs and returns the struct their
// parsed values land in.
func newFlags(fs *flag.FlagSet) *cliFlags {
	c := &cliFlags{}
	fs.StringVar(&c.listen, "listen", ":8356", "HTTP listen address")
	fs.StringVar(&c.graphPath, "graph", "", "graph file (labeled edge-list format)")
	fs.StringVar(&c.algos, "algos", "", "comma-separated query classes to host: sssp|cc|sim|dfs|lcc|bc")
	fs.IntVar(&c.src, "src", 0, "source node (sssp)")
	fs.StringVar(&c.pattern, "pattern", "", "pattern graph file (sim)")

	fs.StringVar(&c.genKind, "gen", "", "host a synthetic graph instead of -graph: powerlaw|grid")
	fs.IntVar(&c.genNodes, "nodes", 1000, "synthetic node count")
	fs.IntVar(&c.genDeg, "deg", 8, "synthetic average degree")
	fs.BoolVar(&c.genDirect, "directed", false, "synthetic graph directed")
	fs.Int64Var(&c.genSeed, "seed", 1, "synthetic seed")

	fs.IntVar(&c.maxBatch, "max-batch", 256, "coalescing window: flush after this many updates")
	fs.DurationVar(&c.maxWait, "max-wait", 2*time.Millisecond, "coalescing window: flush after this long")
	fs.IntVar(&c.queue, "queue", 1024, "per-maintainer submission queue depth")
	fs.IntVar(&c.workers, "workers", 0, "partition repair rounds across this many workers (sssp, cc; 0 or 1: sequential)")

	fs.StringVar(&c.logLevel, "log-level", "info", "log verbosity: debug|info|warn|error (debug logs every apply)")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "optional second listener for pprof and expvar (e.g. :6060)")
	fs.BoolVar(&c.accessLog, "access-log", false, "log every HTTP request (method, path, status, duration, trace ID)")

	fs.StringVar(&c.dataDir, "data-dir", "", "durability directory (WAL + checkpoints); empty runs in-memory only")
	fs.StringVar(&c.fsync, "fsync", "always", "WAL fsync policy: always|interval|never")
	fs.DurationVar(&c.fsyncInterval, "fsync-interval", 5*time.Millisecond, "fsync cadence under -fsync interval")
	fs.IntVar(&c.ckptEvery, "checkpoint-every", 1024, "checkpoint after this many ingested batches (0: only on shutdown)")
	fs.BoolVar(&c.verifyRec, "verify-recovery", true, "verify recovered answers against a batch recompute on startup")

	fs.IntVar(&c.shardID, "shard-id", -1, "serve one fragment of a partitioned deployment: this daemon's shard id (requires -shards)")
	fs.IntVar(&c.shards, "shards", 0, "total shard count of the partitioned deployment (with -shard-id)")
	fs.StringVar(&c.replicaOf, "replica-of", "", "run as a warm replica of the primary at this base URL, shipping and replaying its WAL (requires -data-dir)")
	return c
}

// validateFlags rejects flag combinations that parse but cannot mean
// anything, before any graph is loaded or listener bound. main exits 2
// (usage) on a validation error, so misconfiguration is distinguishable
// from runtime failure.
func validateFlags(c *cliFlags) error {
	if c.workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", c.workers)
	}
	if c.shards < 0 {
		return fmt.Errorf("-shards must be >= 1, got %d", c.shards)
	}
	if (c.shardID >= 0) != (c.shards > 0) {
		return fmt.Errorf("-shard-id and -shards must be set together (got -shard-id %d, -shards %d)", c.shardID, c.shards)
	}
	if c.shards > 0 && c.shardID >= c.shards {
		return fmt.Errorf("-shard-id %d out of range for -shards %d", c.shardID, c.shards)
	}
	if c.replicaOf != "" && c.dataDir == "" {
		return fmt.Errorf("-replica-of requires -data-dir (the shipped WAL needs a home)")
	}
	return nil
}

func main() {
	c := newFlags(flag.CommandLine)
	flag.Parse()
	if err := validateFlags(c); err != nil {
		fmt.Fprintln(os.Stderr, "incgraphd:", err)
		flag.Usage()
		os.Exit(2)
	}
	logger, err := newLogger(c.logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "incgraphd:", err)
		os.Exit(2)
	}
	if err := run(logger, c); err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
}

// newLogger builds the process logger at the requested level, writing
// structured key=val lines to stderr.
func newLogger(level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug|info|warn|error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// parseAlgos splits the -algos list, dropping empty entries.
func parseAlgos(algos string) ([]string, error) {
	var out []string
	for _, algo := range strings.Split(algos, ",") {
		if algo = strings.TrimSpace(algo); algo != "" {
			out = append(out, algo)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("missing -algos (e.g. -algos sssp,cc)")
	}
	return out, nil
}

// serveOptions assembles the host options from the flags, wiring the
// apply debug log.
func serveOptions(logger *slog.Logger, c *cliFlags) incgraph.ServeOptions {
	opt := incgraph.ServeOptions{MaxBatch: c.maxBatch, MaxWait: c.maxWait, Queue: c.queue, Workers: c.workers}
	// Every apply is traced through this hook at debug level: host, epoch,
	// batch size, coalescing, |AFF|, and the latency split — the same
	// fields /debug/applies retains.
	opt.OnApply = func(t incgraph.ServeApplyTrace) {
		logger.Debug("apply",
			"host", t.Algo,
			"epoch", t.Epoch,
			"batch_size", t.RawUpdates,
			"net_size", t.NetUpdates,
			"affected", t.Affected,
			"apply_latency", time.Duration(t.ApplyNanos),
			"queue_wait", time.Duration(t.QueueWaitNanos),
			"trace", t.TraceID)
	}
	return opt
}

func run(logger *slog.Logger, c *cliFlags) error {
	algoList, err := parseAlgos(c.algos)
	if err != nil {
		return err
	}
	base, err := loadGraph(c.graphPath, c.genKind, c.genSeed, c.genNodes, c.genDeg, c.genDirect)
	if err != nil {
		return err
	}
	var pat *incgraph.Graph
	if c.pattern != "" {
		f, err := os.Open(c.pattern)
		if err != nil {
			return err
		}
		pat, err = incgraph.ReadGraph(f)
		f.Close()
		if err != nil {
			return err
		}
	}

	// Shard mode: the daemon serves one fragment. Filtering keeps every
	// node id valid (views stay globally indexed) but drops edges owned
	// by other shards; the partitioner here must match the router's.
	var part shard.Partitioner
	if c.shards > 0 {
		if part, err = shard.NewPartitioner("hash", c.shards); err != nil {
			return err
		}
		full := base.NumEdges()
		base = shard.FilterGraph(base, part, c.shardID)
		logger.Info("sharded", "shard", c.shardID, "shards", c.shards,
			"fragment_edges", base.NumEdges(), "full_edges", full)
	}

	opt := serveOptions(logger, c)
	if c.replicaOf != "" {
		return runReplica(logger, c, base, pat, part, algoList, opt)
	}

	svc := incgraph.NewService()
	// Name the flight recorder's process so a cluster-merged timeline
	// shows "shard-2", not four processes all called "incgraph".
	if part != nil {
		svc.Recorder().SetProcess(fmt.Sprintf("shard-%d", c.shardID))
	} else {
		svc.Recorder().SetProcess("incgraphd")
	}

	// With a data directory, recovery runs before any host starts: restore
	// each maintainer from the latest checkpoint (falling back to a fresh
	// batch run on the input graph), replay the WAL tail through the
	// incremental Apply path, verify against batch recompute, and only
	// then start the apply loops at the recovered stream position.
	var rec *incgraph.Recovery
	if c.dataDir != "" {
		if rec, err = incgraph.LoadRecovery(c.dataDir); err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
	}
	targets := make(map[string]incgraph.Serveable, len(algoList))
	for _, algo := range algoList {
		t0 := time.Now()
		// Every maintainer owns a private clone: maintainers mutate
		// their graph in Apply and are single-writer objects.
		g := base.Clone()
		restored := false
		if rec != nil {
			if ra, ok := rec.Algos[algo]; ok {
				g, restored = ra.Graph, true
			}
		}
		m, err := buildServeable(algo, g, incgraph.NodeID(c.src), pat)
		if err != nil {
			svc.Close()
			return err
		}
		if rec != nil {
			if err := rec.Restore(algo, m); err != nil {
				svc.Close()
				return fmt.Errorf("recovery: restore %s: %w", algo, err)
			}
		}
		targets[algo] = m
		logger.Info("hosted", "host", algo, "batch_init", time.Since(t0).Round(time.Microsecond),
			"from_checkpoint", restored)
	}
	var d *incgraph.Durable
	if rec != nil {
		replayed, err := rec.Replay(targets, svc.Recorder())
		if err != nil {
			return fmt.Errorf("recovery: replay: %w", err)
		}
		var divergent []string
		if c.verifyRec {
			divergent = incgraph.VerifyRecovered(targets, svc.Recorder())
			if len(divergent) > 0 {
				logger.Warn("recovery: replayed state diverged from batch recompute; repaired",
					"algos", strings.Join(divergent, ","))
			}
		}
		logger.Info("recovered", "dir", c.dataDir,
			"checkpoint_epoch", rec.CheckpointEpoch, "replayed_records", replayed,
			"divergent", len(divergent))
		policy, err := incgraph.ParseSyncPolicy(c.fsync)
		if err != nil {
			return err
		}
		for _, algo := range algoList {
			o := opt
			o.BaseEpoch, o.BaseBatches = rec.Base(algo)
			if _, err := svc.Host(targets[algo], o); err != nil {
				svc.Close()
				return err
			}
		}
		if d, err = incgraph.OpenDurable(svc, c.dataDir, incgraph.DurableOptions{
			WAL:             incgraph.WALOptions{Policy: policy, Interval: c.fsyncInterval},
			CheckpointEvery: c.ckptEvery,
		}); err != nil {
			svc.Close()
			return err
		}
		d.RecordRecovery(replayed, len(divergent))
	} else {
		for _, algo := range algoList {
			if _, err := svc.Host(targets[algo], opt); err != nil {
				svc.Close()
				return err
			}
		}
	}

	// Shard-mode daemons expose the exchange API the router drives, and
	// (when durable) the WAL stream a log-shipping replica follows.
	if part != nil {
		shard.MountShardAPI(svc, part, c.shardID, base.NumNodes(), base.Directed(), nil)
	}
	if d != nil {
		svc.Mount("/wal/", http.StripPrefix("/wal", d.Log().StreamHandler()))
	}

	if c.debugAddr != "" {
		// pprof and expvar registered themselves on the default mux via
		// their imports; serve it on the side listener only.
		go func() {
			logger.Info("debug listener", "addr", c.debugAddr)
			if err := http.ListenAndServe(c.debugAddr, http.DefaultServeMux); err != nil {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}

	handler := svc.Handler()
	if c.accessLog {
		handler = incgraph.AccessLog(logger, handler)
	}
	srv := &http.Server{Addr: c.listen, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("serving", "nodes", base.NumNodes(), "edges", base.NumEdges(), "addr", c.listen)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		svc.Close()
		if d != nil {
			d.Close()
		}
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop taking requests first, then checkpoint at
	// the drained cut (the checkpoint job queues behind every accepted
	// submission, so it covers exactly what was acknowledged), then drain
	// and stop the apply loops.
	logger.Info("shutting down: draining apply queues")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	if d != nil {
		t0 := time.Now()
		if err := d.Checkpoint(); err != nil {
			logger.Warn("checkpoint on drain", "err", err)
		} else {
			logger.Info("checkpoint on drain", "took", time.Since(t0).Round(time.Microsecond))
		}
	}
	svc.Close()
	if d != nil {
		if err := d.Close(); err != nil {
			logger.Warn("wal close", "err", err)
		}
	}
	for _, h := range svc.Hosts() {
		st := h.Stats()
		logger.Info("drained",
			"host", st.Algo,
			"epoch", st.Epoch,
			"updates", st.UpdatesApplied,
			"batches", st.BatchesApplied,
			"coalesced", st.UpdatesCoalesced,
			"mean_apply", time.Duration(st.MeanApplyNanos).Round(time.Microsecond),
			"last_apply", time.Duration(st.LastApplyNanos).Round(time.Microsecond))
	}
	return nil
}

// runReplica is the warm-replica mode: ship the primary's WAL into the
// local data directory, replay it continuously into un-hosted
// maintainers, and serve only health/status endpoints until promotion
// swaps in the full serving API.
func runReplica(logger *slog.Logger, c *cliFlags, base *incgraph.Graph, pat *incgraph.Graph,
	part shard.Partitioner, algoList []string, opt incgraph.ServeOptions) error {
	// Bootstrap: pull the primary's checkpoint and segment bytes before
	// recovery, so a replica started late still begins from the newest
	// durable cut instead of replaying from genesis. Best effort — a
	// briefly unreachable primary just means starting from local state.
	if err := os.MkdirAll(c.dataDir, 0o755); err != nil {
		return fmt.Errorf("replica data dir: %w", err)
	}
	hc := &http.Client{Timeout: 30 * time.Second}
	var pullErr error
	for attempt := 0; attempt < 20; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, pullErr = shard.PullWAL(ctx, hc, c.replicaOf, c.dataDir)
		cancel()
		if pullErr == nil {
			break
		}
		time.Sleep(250 * time.Millisecond)
	}
	if pullErr != nil {
		logger.Warn("replica bootstrap: primary unreachable; starting from local state", "err", pullErr)
	}
	rec, err := incgraph.LoadRecovery(c.dataDir)
	if err != nil {
		return fmt.Errorf("replica recovery: %w", err)
	}
	targets := make(map[string]incgraph.Serveable, len(algoList))
	baseEpochs := make(map[string]uint64, len(algoList))
	baseBatches := make(map[string]uint64, len(algoList))
	for _, algo := range algoList {
		g := base.Clone()
		if ra, ok := rec.Algos[algo]; ok {
			g = ra.Graph
		}
		m, err := buildServeable(algo, g, incgraph.NodeID(c.src), pat)
		if err != nil {
			return err
		}
		if err := rec.Restore(algo, m); err != nil {
			return fmt.Errorf("replica restore %s: %w", algo, err)
		}
		targets[algo] = m
		ra := rec.Algos[algo]
		baseEpochs[algo], baseBatches[algo] = ra.Epoch, ra.Batches
	}
	// The service exists before the follower so its registry carries the
	// replication-lag gauges and its recorder the replay spans from the
	// first shipped record — the replica is observable before promotion.
	svc := incgraph.NewService()
	if c.shardID >= 0 {
		svc.Recorder().SetProcess(fmt.Sprintf("replica-%d", c.shardID))
	} else {
		svc.Recorder().SetProcess("replica")
	}
	follower := shard.NewFollower(shard.FollowerOptions{
		Source:      c.replicaOf,
		Dir:         c.dataDir,
		Targets:     targets,
		ReplayFrom:  rec.ReplayFrom,
		BaseEpochs:  baseEpochs,
		BaseBatches: baseBatches,
		Client:      hc,
		Registry:    svc.Registry(),
		Recorder:    svc.Recorder(),
		Logf: func(format string, args ...any) {
			logger.Debug(fmt.Sprintf(format, args...))
		},
	})
	go follower.Run()
	logger.Info("following", "primary", c.replicaOf, "dir", c.dataDir,
		"replay_from", rec.ReplayFrom, "checkpoint_epoch", rec.CheckpointEpoch)
	var promoted atomic.Bool
	// handler swaps from the replica mux to the full API on promotion.
	// The stored values have different concrete handler types, so they
	// ride in a one-field box to keep atomic.Value's type consistent.
	type handlerBox struct{ h http.Handler }
	var handler atomic.Value

	// pstate carries what promotion creates across to the shutdown path.
	var pstate struct {
		sync.Mutex
		d *incgraph.Durable
	}

	promote := func() (map[string]uint64, error) {
		// Seal the follower: after Stop the targets reflect every shipped
		// record and nothing else writes them, so hosting them at the
		// follower's stream position is a consistent handoff.
		follower.Stop()
		epochs, batches := follower.Epochs(), follower.Batches()
		if c.verifyRec {
			if divergent := incgraph.VerifyRecovered(targets, svc.Recorder()); len(divergent) > 0 {
				logger.Warn("promotion: replayed state diverged from batch recompute; repaired",
					"algos", strings.Join(divergent, ","))
			}
		}
		for _, algo := range algoList {
			o := opt
			o.BaseEpoch, o.BaseBatches = epochs[algo], batches[algo]
			if _, err := svc.Host(targets[algo], o); err != nil {
				return nil, err
			}
		}
		policy, err := incgraph.ParseSyncPolicy(c.fsync)
		if err != nil {
			return nil, err
		}
		// OpenDurable truncates the shipped WAL's torn tail frame (if the
		// primary died mid-ship) and appends after it — the replica's log
		// is now the authoritative continuation.
		d, err := incgraph.OpenDurable(svc, c.dataDir, incgraph.DurableOptions{
			WAL:             incgraph.WALOptions{Policy: policy, Interval: c.fsyncInterval},
			CheckpointEvery: c.ckptEvery,
		})
		if err != nil {
			return nil, err
		}
		pstate.Lock()
		pstate.d = d
		pstate.Unlock()
		if part != nil {
			shard.MountShardAPI(svc, part, c.shardID, base.NumNodes(), base.Directed(), func() bool { return false })
		}
		svc.Mount("/wal/", http.StripPrefix("/wal", d.Log().StreamHandler()))
		full := svc.Handler()
		if c.accessLog {
			full = incgraph.AccessLog(logger, full)
		}
		handler.Store(handlerBox{full})
		logger.Info("promoted", "epochs", fmt.Sprint(epochs))
		return epochs, nil
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /replica/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, follower.Status())
	})
	// Replication lag and replay spans are observable before promotion:
	// the router's /cluster/metrics and /debug/cluster/trace scrape these.
	mux.Handle("GET /metrics", svc.Registry().Handler())
	mux.Handle("GET /metrics.json", svc.Registry().JSONHandler())
	mux.Handle("GET /debug/trace", svc.Recorder().Handler())
	mux.HandleFunc("GET /shard/info", func(w http.ResponseWriter, r *http.Request) {
		info := shard.Info{Nodes: base.NumNodes(), Directed: base.Directed(), Replica: true, Epochs: follower.Epochs()}
		if part != nil {
			info.Shard, info.Shards, info.Partitioner = c.shardID, part.Shards(), part.Name()
		}
		writeJSON(w, http.StatusOK, info)
	})
	// Stale reads: pre-promotion, the replica answers /query/{algo} from
	// its replayed maintainers, every view stamped degraded. This is the
	// surface the router's fetchView falls back to when a primary's
	// breaker is open — a lagging answer with an honest epoch instead of
	// a missing shard.
	mux.HandleFunc("GET /query/{algo}", func(w http.ResponseWriter, r *http.Request) {
		v, ok := follower.View(r.PathValue("algo"))
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown algo " + r.PathValue("algo")})
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("POST /replica/promote", func(w http.ResponseWriter, r *http.Request) {
		if !promoted.CompareAndSwap(false, true) {
			writeJSON(w, http.StatusConflict, map[string]string{"error": "already promoted"})
			return
		}
		epochs, err := promote()
		if err != nil {
			logger.Error("promotion failed", "err", err)
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"epochs": epochs})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"error": "warm replica: not serving until POST /replica/promote"})
	})
	handler.Store(handlerBox{mux})

	srv := &http.Server{Addr: c.listen, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(handlerBox).h.ServeHTTP(w, r)
	})}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		logger.Info("replica serving", "addr", c.listen, "primary", c.replicaOf)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	select {
	case err := <-errc:
		follower.Stop()
		svc.Close()
		return err
	case <-ctx.Done():
	}
	logger.Info("replica shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	follower.Stop()
	pstate.Lock()
	d := pstate.d
	pstate.Unlock()
	if d != nil {
		if err := d.Checkpoint(); err != nil {
			logger.Warn("checkpoint on drain", "err", err)
		}
	}
	svc.Close()
	if d != nil {
		if err := d.Close(); err != nil {
			logger.Warn("wal close", "err", err)
		}
	}
	return nil
}

// writeJSON writes v as JSON with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func loadGraph(path, genKind string, seed int64, nodes, deg int, directed bool) (*incgraph.Graph, error) {
	switch {
	case genKind == "powerlaw":
		return incgraph.PowerLawGraph(seed, nodes, deg, directed), nil
	case genKind == "grid":
		side := 1
		for side*side < nodes {
			side++
		}
		return incgraph.GridGraph(seed, side, side), nil
	case genKind != "":
		return nil, fmt.Errorf("unknown generator %q", genKind)
	case path == "":
		return nil, fmt.Errorf("missing -graph (or -gen)")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return incgraph.ReadGraph(f)
}

func buildServeable(algo string, g *incgraph.Graph, src incgraph.NodeID, pat *incgraph.Graph) (incgraph.Serveable, error) {
	switch algo {
	case "sssp":
		if int(src) < 0 || int(src) >= g.NumNodes() {
			return nil, fmt.Errorf("sssp: source %d out of range", src)
		}
		return incgraph.ServeSSSP(incgraph.NewIncSSSP(g, src), src), nil
	case "cc":
		return incgraph.ServeCC(incgraph.NewIncCC(g)), nil
	case "sim":
		if pat == nil {
			return nil, fmt.Errorf("sim needs -pattern")
		}
		return incgraph.ServeSim(incgraph.NewIncSim(g, pat)), nil
	case "dfs":
		return incgraph.ServeDFS(incgraph.NewIncDFS(g)), nil
	case "lcc":
		if g.Directed() {
			return nil, fmt.Errorf("lcc needs an undirected graph")
		}
		return incgraph.ServeLCC(incgraph.NewIncLCC(g)), nil
	case "bc":
		if g.Directed() {
			return nil, fmt.Errorf("bc needs an undirected graph")
		}
		return incgraph.ServeBC(incgraph.NewIncBC(g)), nil
	default:
		return nil, fmt.Errorf("unknown algo %q (want sssp|cc|sim|dfs|lcc|bc)", algo)
	}
}
