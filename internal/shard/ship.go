package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"incgraph/internal/obs"
	"incgraph/internal/serve"
	"incgraph/internal/trace"
	"incgraph/internal/wal"
)

// This file is the replication half of sharded serving: log shipping.
// A primary shard daemon exposes its WAL through (*wal.Log).StreamHandler
// (mounted under /wal/); a warm replica runs a Follower, which pulls
// segment bytes and checkpoints into its own data directory and hands
// every newly complete record to the replica's serve.Recovery — the
// same ApplyRecord a restarting primary's replay uses. Promotion is then
// cheap: stop the follower loop and host the maintainers at the
// recovery's Base, exactly as a restarted primary does. Replication is
// asynchronous — updates acked by the primary but not yet shipped are
// lost on promotion, and the epoch vector is what makes that loss
// visible instead of silent.

// ShipProgress describes one PullWAL cycle: what was fetched and how far
// the local mirror still trails the primary's listing. The lag fields
// are measured after the pull, so a fully caught-up replica reports
// zero for both.
type ShipProgress struct {
	// Shipped counts segment bytes fetched by this cycle.
	Shipped int64
	// RemoteBytes is the total segment size the primary listed.
	RemoteBytes int64
	// LagBytes is how many listed bytes are still missing locally.
	LagBytes int64
	// LagSegments counts listed segments not yet fully mirrored.
	LagSegments int
}

// PullWAL mirrors the primary's WAL directory into dir: the newest
// checkpoint (if any, fetched once) and every listed segment's missing
// byte range. src is the primary's base URL; the stream endpoints are
// expected under src+"/wal". It returns the number of segment bytes
// fetched. Safe to call repeatedly; each call ships only what is new.
func PullWAL(ctx context.Context, hc *http.Client, src, dir string) (int64, error) {
	p, err := PullWALStatus(ctx, hc, src, dir)
	return p.Shipped, err
}

// PullWALStatus is PullWAL reporting full ship progress — the
// replication-lag measurement a follower turns into gauges.
func PullWALStatus(ctx context.Context, hc *http.Client, src, dir string) (ShipProgress, error) {
	var p ShipProgress
	if hc == nil {
		hc = defaultShardClient
	}
	var lst wal.StreamListing
	if err := getJSON(ctx, hc, src+"/wal/segments", &lst); err != nil {
		return p, fmt.Errorf("shard: list segments: %w", err)
	}
	if lst.CheckpointSeq > 0 {
		name := wal.CheckpointName(lst.CheckpointSeq)
		if _, err := os.Stat(filepath.Join(dir, name)); os.IsNotExist(err) {
			if err := fetchToFile(ctx, hc, src+"/wal/checkpoint", filepath.Join(dir, name)); err != nil {
				return p, fmt.Errorf("shard: fetch checkpoint: %w", err)
			}
		}
	}
	var pullErr error
	for _, seg := range lst.Segments {
		p.RemoteBytes += seg.Size
		if pullErr == nil {
			n, err := pullSegment(ctx, hc, src, dir, seg)
			p.Shipped += n
			pullErr = err
		}
		var local int64
		if fi, err := os.Stat(filepath.Join(dir, wal.SegmentName(seg.Seq))); err == nil {
			local = fi.Size()
		}
		if local < seg.Size {
			p.LagBytes += seg.Size - local
			p.LagSegments++
		}
	}
	return p, pullErr
}

// pullSegment ships the missing suffix of one segment, chunk by chunk,
// up to the size the listing reported (later bytes arrive next cycle).
func pullSegment(ctx context.Context, hc *http.Client, src, dir string, seg wal.SegmentInfo) (int64, error) {
	path := filepath.Join(dir, wal.SegmentName(seg.Seq))
	var local int64
	if fi, err := os.Stat(path); err == nil {
		local = fi.Size()
	}
	var shipped int64
	for local < seg.Size {
		url := fmt.Sprintf("%s/wal/segment/%d?off=%d", src, seg.Seq, local)
		n, err := appendToFile(ctx, hc, url, path)
		shipped += n
		if err != nil {
			return shipped, fmt.Errorf("shard: ship %s: %w", wal.SegmentName(seg.Seq), err)
		}
		if n == 0 {
			break // primary pruned or truncated the listing raced; retry next cycle
		}
		local += n
	}
	return shipped, nil
}

func getJSON(ctx context.Context, hc *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// fetchToFile downloads url into path atomically (tmp + rename), so a
// crashed fetch never leaves a torn checkpoint with a valid name.
func fetchToFile(ctx context.Context, hc *http.Client, url, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ship-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := io.Copy(tmp, resp.Body); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// appendToFile streams url's body onto the end of path, returning the
// byte count. Segments are append-only on both sides, so plain O_APPEND
// is exact.
func appendToFile(ctx context.Context, hc *http.Client, url, path string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// FollowerOptions configure a warm replica's ship-and-replay loop.
type FollowerOptions struct {
	// Source is the primary's base URL (WAL endpoints under /wal).
	Source string
	// Dir is the local data directory the WAL is shipped into — the
	// directory the replica will serve durably from after promotion.
	Dir string
	// Targets maps algo names to un-hosted maintainers the replayed
	// records are applied to. The follower is their only writer until
	// promotion.
	Targets map[string]serve.Serveable
	// Recovery is the replica's loaded checkpoint (serve.LoadRecovery on
	// Dir), with Targets built from it. The follower tails the WAL from
	// its ReplayFrom and applies every record through its ApplyRecord,
	// so its Base is the replica's stream position — where a promoted
	// host resumes. Nil tails from segment 0 with a zero base.
	Recovery *serve.Recovery
	// Interval is the poll cadence (default 100ms — replication lag is
	// bounded by this plus transfer time).
	Interval time.Duration
	// Client overrides the HTTP client used against the primary.
	Client *http.Client
	// Logf receives follower progress lines; nil discards them.
	Logf func(format string, args ...any)
	// Registry, when set, receives the replication-lag gauges
	// (incgraph_replica_lag_{segments,bytes,seconds} and the shipped-byte
	// counter) so a replica's /metrics scrape carries real lag numbers.
	Registry *obs.Registry
	// Recorder, when set, receives one replay span per applied WAL
	// record, tagged with the trace ID the record was logged under — the
	// piece that makes a replica's replay appear in the cluster-merged
	// timeline of the original request.
	Recorder *trace.Recorder
}

// Follower runs continuous log shipping for one replica: pull new WAL
// bytes from the primary, replay newly complete records into the target
// maintainers, repeat. All applies happen on the follower goroutine, so
// the maintainers see a single writer — the same contract the serving
// apply loop provides.
type Follower struct {
	opt   FollowerOptions
	tail  *wal.Tail
	track int32 // replication track on opt.Recorder, 0 when untraced

	// applyMu serializes record applies — maintainer Apply and the
	// Recovery's stream-position count — against View, Epochs and
	// Status, so a stale read taken mid-replay still sees a
	// record-aligned state.
	applyMu sync.Mutex

	// pullFails/skipTicks implement deterministic pull backoff: after k
	// consecutive pull errors the follower skips min(2^k,16)-1 ticks
	// before contacting the primary again, so a dead primary is probed at
	// a trickle instead of every interval. Local replay still runs every
	// tick — shipped bytes keep draining regardless.
	pullFails int
	skipTicks int

	mu         sync.Mutex
	shipped    int64
	lastErr    error
	lagSegs    int
	lagBytes   int64
	lastRecNs  int64 // Nanos of the newest replayed record (0 = none seen)
	behindSecs float64

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewFollower builds a follower; call Run (usually in a goroutine) to
// start shipping.
func NewFollower(opt FollowerOptions) *Follower {
	if opt.Interval <= 0 {
		opt.Interval = 100 * time.Millisecond
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	if opt.Recovery == nil {
		opt.Recovery = &serve.Recovery{}
	}
	f := &Follower{
		opt:  opt,
		tail: wal.NewTail(opt.Dir, opt.Recovery.ReplayFrom),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if opt.Recorder != nil {
		f.track = opt.Recorder.Track("replication")
	}
	if reg := opt.Registry; reg != nil {
		reg.GaugeFunc("incgraph_replica_lag_segments",
			"WAL segments listed by the primary but not fully mirrored.",
			func() float64 { return float64(f.Status().LagSegments) })
		reg.GaugeFunc("incgraph_replica_lag_bytes",
			"WAL bytes listed by the primary but not yet shipped.",
			func() float64 { return float64(f.Status().LagBytes) })
		reg.GaugeFunc("incgraph_replica_lag_seconds",
			"Seconds behind the primary: age of the newest replayed record while lagging, 0 when caught up.",
			func() float64 { return f.Status().LagSeconds })
		reg.GaugeFunc("incgraph_replica_shipped_bytes",
			"Segment bytes fetched from the primary since the follower started.",
			func() float64 { return float64(f.Status().ShippedBytes) })
		reg.GaugeFunc("incgraph_replica_records",
			"WAL records replayed into the replica's maintainers.",
			func() float64 { return float64(f.Status().Records) })
	}
	return f
}

// Run ships and replays until Stop. It returns after the final
// drain: one last replay pass over whatever bytes made it to disk, so a
// promotion sees every shipped record applied.
func (f *Follower) Run() {
	f.startOnce.Do(func() {
		defer close(f.done)
		tick := time.NewTicker(f.opt.Interval)
		defer tick.Stop()
		for {
			f.cycle()
			select {
			case <-f.stop:
				// Final drain: the primary may be gone (that is why we
				// are stopping), but locally shipped bytes must all be
				// applied before the replica can serve.
				f.replayLocal()
				return
			case <-tick.C:
			}
		}
	})
}

// cycle is one pull+replay round. Consecutive pull failures back the
// pull off exponentially (skip 1, 3, 7, … up to 15 ticks between
// probes); replay always runs so already-shipped bytes drain even while
// the primary is unreachable.
func (f *Follower) cycle() {
	if f.skipTicks > 0 {
		f.skipTicks--
		f.replayLocal()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p, err := PullWALStatus(ctx, f.opt.Client, f.opt.Source, f.opt.Dir)
	if err != nil {
		f.pullFails++
		skip := 1 << f.pullFails
		if skip > 16 {
			skip = 16
		}
		f.skipTicks = skip - 1
	} else {
		f.pullFails = 0
		f.skipTicks = 0
	}
	f.mu.Lock()
	f.shipped += p.Shipped
	f.lagSegs = p.LagSegments
	f.lagBytes = p.LagBytes
	f.lastErr = err
	f.mu.Unlock()
	if err != nil {
		f.opt.Logf("follower: pull from %s: %v (next probe in %d ticks)", f.opt.Source, err, f.skipTicks+1)
	}
	f.replayLocal()
}

// replayLocal advances the tail over shipped bytes, applying each record
// to its targets through the recovery's ApplyRecord.
func (f *Follower) replayLocal() {
	emitted, err := f.tail.Advance(func(rec wal.Record) error {
		var span trace.Span
		if f.opt.Recorder != nil {
			span = f.opt.Recorder.Begin("replay", "ship", f.track)
			span.SetTrace(trace.TraceID(rec.Trace))
			span.Arg("updates", int64(len(rec.Batch)))
			if rec.Nanos > 0 {
				span.Arg("record_age_ns", time.Now().UnixNano()-rec.Nanos)
			}
		}
		f.applyMu.Lock()
		f.opt.Recovery.ApplyRecord(f.opt.Targets, rec)
		f.applyMu.Unlock()
		if rec.Nanos > 0 {
			f.mu.Lock()
			f.lastRecNs = rec.Nanos
			f.mu.Unlock()
		}
		if f.opt.Recorder != nil {
			span.End()
		}
		return nil
	})
	f.mu.Lock()
	if err != nil {
		f.lastErr = err
	}
	// Seconds-behind: while bytes are still missing, the replica is at
	// best as fresh as the newest record it replayed; once the mirror is
	// byte-complete and drained, it is caught up (0), regardless of how
	// old the last record is on an idle primary.
	if f.lagBytes > 0 && f.lastRecNs > 0 {
		f.behindSecs = time.Duration(time.Now().UnixNano() - f.lastRecNs).Seconds()
		if f.behindSecs < 0 {
			f.behindSecs = 0
		}
	} else {
		f.behindSecs = 0
	}
	f.mu.Unlock()
	if err != nil {
		f.opt.Logf("follower: replay: %v", err)
	}
	if emitted > 0 {
		f.opt.Logf("follower: replayed %d records (epochs %v)", emitted, f.Epochs())
	}
}

// Stop halts the loop and blocks until the final local drain finished.
// After Stop returns, the targets reflect every shipped record and no
// goroutine touches them — the caller may host them.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
}

// Epochs returns the per-algo stream positions the replica has applied
// up to: the recovery's Base epoch of every target.
func (f *Follower) Epochs() map[string]uint64 {
	f.applyMu.Lock()
	defer f.applyMu.Unlock()
	return f.epochsLocked()
}

func (f *Follower) epochsLocked() map[string]uint64 {
	out := make(map[string]uint64, len(f.opt.Targets))
	for a := range f.opt.Targets {
		out[a], _ = f.opt.Recovery.Base(a)
	}
	return out
}

// View serves a stale read from the replica's maintainers while the
// follower is still running — the surface a router falls back to when
// the primary's breaker is open. The view is always stamped Degraded:
// it trails the primary by the replication lag, and the epoch says by
// exactly how much. Returns false for an algo the replica does not
// host.
func (f *Follower) View(algo string) (serve.View, bool) {
	m, ok := f.opt.Targets[algo]
	if !ok {
		return serve.View{}, false
	}
	f.applyMu.Lock()
	defer f.applyMu.Unlock()
	v := serve.View{Algo: algo, Degraded: true, Data: m.Snapshot()}
	v.Epoch, v.Batches = f.opt.Recovery.Base(algo)
	return v, true
}

// Status reports the follower's replication progress.
func (f *Follower) Status() FollowerStatus {
	f.applyMu.Lock()
	st := FollowerStatus{
		Source:  f.opt.Source,
		Records: uint64(f.opt.Recovery.Replayed),
		Epochs:  f.epochsLocked(),
	}
	f.applyMu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	st.ShippedBytes = f.shipped
	st.LagSegments = f.lagSegs
	st.LagBytes = f.lagBytes
	st.LagSeconds = f.behindSecs
	if f.lastErr != nil {
		st.LastError = f.lastErr.Error()
	}
	return st
}

// FollowerStatus is the JSON shape of a replica's /replica/status.
type FollowerStatus struct {
	// Source is the primary being followed.
	Source string `json:"source"`
	// ShippedBytes counts segment bytes fetched since start.
	ShippedBytes int64 `json:"shipped_bytes"`
	// Records counts WAL records replayed (lifetime of the tail).
	Records uint64 `json:"records"`
	// LagSegments counts primary segments not yet fully mirrored, as of
	// the last pull cycle.
	LagSegments int `json:"lag_segments"`
	// LagBytes counts primary WAL bytes not yet shipped.
	LagBytes int64 `json:"lag_bytes"`
	// LagSeconds is the seconds-behind-primary estimate: the age of the
	// newest replayed record while bytes are still missing, 0 once the
	// mirror is byte-complete and drained.
	LagSeconds float64 `json:"lag_seconds"`
	// Epochs are the per-algo stream positions applied so far.
	Epochs map[string]uint64 `json:"epochs"`
	// LastError is the most recent pull/replay error, "" when healthy.
	LastError string `json:"last_error,omitempty"`
}
