// Command servebench is incgraph's serving benchmark. It builds incgraphd
// and incrouter from the checkout it runs in, generates a workload's
// inputs from a seed, drives the real serving processes over HTTP, checks
// the final answers against a batch recompute, and prints end-to-end
// metrics (or, with --trace 1, per-layer metrics from a traced
// in-process composition of the same stack).
//
// Run it from the repository root through its wrapper, which builds it
// with a build cache inside the checkout:
//
//	bash servebench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics. Everything before it is a human-readable
// report of the same numbers with their sample counts and bases.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runLimit is the wall-clock budget of one run: past it the benchmark
// kills its children and exits non-zero without a result.
const runLimit = 170 * time.Second

func main() {
	workloadName := flag.String("workload", "", "workload: bulk|undirected|routed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	traced := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	summarize := flag.Bool("summarize", false, "summarize result files (one JSON result per file's last line) instead of running")
	flag.Parse()
	if *summarize {
		if err := summarizeFiles(os.Stdout, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*workloadName]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need --workload bulk|undirected|routed, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// run sets up the run's directory and process hygiene, then runs the
// workload. Every child process is killed and waited for, and the run
// directory removed, on success, failure, signal and timeout.
func run(w workload, seed int64, d time.Duration, traced bool) (*result, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	bdir := filepath.Join(root, buildDir)
	if pids := runChildren(filepath.Join(bdir, runPrefix)); len(pids) > 0 {
		return nil, fmt.Errorf("refusing to start: processes %v from an earlier run are still alive", pids)
	}
	if err := os.MkdirAll(bdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(bdir, runPrefix)
	if err != nil {
		return nil, err
	}
	cleanup := func() {
		if err := killAll(dir+"/", 10*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
		}
		os.RemoveAll(dir)
	}
	defer cleanup()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	limit := make(chan time.Time, 1)
	go func() {
		select {
		case s := <-sigs:
			fmt.Fprintln(os.Stderr, "servebench: interrupted by", s)
		case <-limit:
			fmt.Fprintln(os.Stderr, "servebench: run exceeded", runLimit)
		}
		cleanup()
		os.Exit(1)
	}()

	bins := []string{"incgraphd"}
	if w.Routed {
		bins = append(bins, "incrouter")
	}
	if err := buildBinaries(dir, bins...); err != nil {
		return nil, err
	}
	// The budget starts once the binaries are built: a first build in a
	// fresh checkout may take minutes, a cached one a second.
	start := time.Now()
	timer := time.AfterFunc(runLimit, func() { limit <- time.Now() })
	defer timer.Stop()
	in, err := makeInputs(w, seed, dir)
	if err != nil {
		return nil, err
	}
	repeats := setupRepeats
	if traced {
		repeats = 1 // the traced run reports no setup_s
	}
	ext, err := runExternal(w, in, dir, seed, d, repeats, start.Add(runLimit))
	if err != nil {
		return nil, err
	}
	if !traced {
		return ext.endToEnd(), nil
	}
	return runTraced(w, in, dir, seed, d, ext)
}

// stealLimit is the share of the machine's CPU time the hypervisor may
// steal during a measured phase before the run measures another one.
// On the 2-core VM the benchmark was tuned on, steal read 0-2.5% in
// quiet minutes and 6-37% in bursts, and every latency rose with it
// (bulk's update_p50_ms by 15% at 7% steal, by 75% at 27%).
const stealLimit = 0.05

// maxAttempts bounds the measured phases of one run; the run reports the
// one with the least steal.
const maxAttempts = 2

// attempt is one measured phase on a freshly started topology.
type attempt struct {
	phase    phaseResult
	rssMiB   float64
	rssProcs int
	sess     *session
	checkErr error
}

// extRun is one untraced run against the real processes.
type extRun struct {
	w        workload
	setups   []float64
	attempts []*attempt
	best     *attempt // the attempt with the least steal, which is reported
}

// totals sums the requests of every attempt and returns the first failed
// final check.
func (r *extRun) totals() (attempted, failed int, errs []string, checkErr error) {
	for _, a := range r.attempts {
		attempted += a.sess.attempted
		failed += a.sess.failed
		errs = append(errs, a.sess.errs...)
		if checkErr == nil {
			checkErr = a.checkErr
		}
	}
	return attempted, failed, errs, checkErr
}

// runExternal brings the topology up repeats times (keeping the last),
// warms it up, measures for d, and checks the final answers. If the
// hypervisor stole more than stealLimit of the CPU during the phase, and
// the run's deadline leaves room, it measures again on a topology
// started afresh from the same inputs, so that both phases start from
// the same state, and reports the attempt with the least steal. Every
// attempt's requests count in attempted and failed, and every attempt's
// final answers are checked.
func runExternal(w workload, in *inputs, dir string, seed int64, d time.Duration, repeats int, deadline time.Time) (*extRun, error) {
	r := &extRun{w: w}
	for k := 0; ; k++ {
		e, err := startExternal(w, in, dir, k)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, e.setup)
		if k < repeats-1 {
			e.stop()
			os.RemoveAll(filepath.Join(dir, fmt.Sprintf("data-%d", k)))
			continue
		}
		a := measure(w, in, e, seed, d)
		e.stop()
		os.RemoveAll(filepath.Join(dir, fmt.Sprintf("data-%d", k)))
		r.attempts = append(r.attempts, a)
		if r.best == nil || a.phase.stealFrac < r.best.phase.stealFrac {
			r.best = a
		}
		if len(r.attempts) == maxAttempts || a.phase.stealFrac <= stealLimit || time.Until(deadline) < 3*d+30*time.Second {
			break
		}
	}
	if p := r.best.phase; p.wr.overCap {
		return nil, fmt.Errorf("over capacity: the open-loop writer fell further and further behind its schedule (%s); no latency is reported", p.wr.lateNote)
	}
	return r, nil
}

// measure warms the topology up, measures it for d, and checks its final
// answers.
func measure(w workload, in *inputs, e *external, seed int64, d time.Duration) *attempt {
	s := newSession(w, in, e.tgt, seed)
	defer s.close()
	s.run(warmup)
	a := &attempt{phase: s.run(d), sess: s}
	a.rssMiB, a.rssProcs = e.rssMiB()
	a.checkErr = s.check(in)
	return a
}

// endToEnd reports the run's end-to-end metrics.
func (r *extRun) endToEnd() *result {
	attempted, failed, errs, checkErr := r.totals()
	res := &result{
		Correct:   checkErr == nil,
		Attempted: attempted,
		Failed:    failed,
		Trace:     false,
		Workload:  r.w.Name,
	}
	b := r.best
	p := b.phase
	up, q := summarize(p.wr.latMs), summarize(p.rd.latMs)
	res.add("setup_s", median(r.setups), "s", len(r.setups), fmt.Sprintf("median of %d start-ups: %s", len(r.setups), fmtList(r.setups)))
	res.add("update_p50_ms", up.P50, "ms", up.N, "POST /update?wait=1, submit to visible")
	res.add("update_p99_ms", up.Tail, "ms", up.N, tailNote(up))
	res.add("query_p50_ms", q.P50, "ms", q.N, "GET /query/{class}, body fully read")
	res.add("query_p99_ms", q.Tail, "ms", q.N, tailNote(q))
	upd := ratio{float64(p.wr.updates), p.writeSecs, "unit updates acked", "s of writer activity"}
	res.add("updates_per_s", upd.Value(), "1/s", len(p.wr.latMs), upd.Base())
	qps := ratio{float64(len(p.rd.latMs)), p.readSecs, "queries completed", "s of reader activity"}
	res.add("queries_per_s", qps.Value(), "1/s", len(p.rd.latMs), qps.Base())
	ok := ratio{float64(attempted - failed), float64(attempted), "requests ok", "requests attempted (warm-ups and final checks included)"}
	res.add("ok_frac", ok.Value(), "ratio", attempted, ok.Base())
	res.add("peak_rss_mb", b.rssMiB, "MiB", b.rssProcs, fmt.Sprintf("sum of VmHWM over %d serving process(es)", b.rssProcs))
	if p.interval > 0 {
		late := summarize(p.wr.lateMs)
		res.note = append(res.note, fmt.Sprintf("open loop: %d batches every %v; send lateness p50 %.3f ms, p%g %.3f ms; %s",
			len(p.wr.lateMs), p.interval, late.P50, late.TailP, late.Tail, p.wr.lateNote))
	}
	res.note = append(res.note, fmt.Sprintf("machine: %.1f%% of CPU time stolen by the hypervisor during the phase", 100*p.stealFrac))
	if len(r.attempts) > 1 {
		steals := make([]string, len(r.attempts))
		for i, a := range r.attempts {
			steals[i] = fmt.Sprintf("%.1f%%", 100*a.phase.stealFrac)
		}
		res.note = append(res.note, fmt.Sprintf("measured %d phases, each on a fresh start-up (steal %s; limit %g%%), reported the least stolen", len(r.attempts), strings.Join(steals, ", "), 100*stealLimit))
	}
	if checkErr != nil {
		res.note = append(res.note, "CORRECTNESS: "+checkErr.Error())
	} else {
		res.note = append(res.note, fmt.Sprintf("correctness: in every attempt, every class's final answer equals the batch recompute over base + the acked batches (reported attempt: %d batches, %d updates, %d of them the applied slices of batches the router refused)", len(b.sess.acked), b.sess.ackedUpdates, b.sess.partial))
	}
	for _, e := range errs {
		res.note = append(res.note, "error: "+e)
	}
	return res
}

func tailNote(d dist) string {
	if d.N == 0 {
		return "no samples"
	}
	if d.TailP == 99 {
		return "p99"
	}
	return fmt.Sprintf("p%.4g: the highest percentile %d samples support with %d beyond it", d.TailP, d.N, minBeyond)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, ", ")
}

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int    // samples behind the value
	Note  string // how it was computed, with the base of any ratio
}

// result is one run's report.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Trace     bool
	Workload  string
	metrics   []metric
	note      []string
}

func (r *result) add(name string, v float64, unit string, n int, note string) {
	r.metrics = append(r.metrics, metric{name, v, unit, n, note})
}

// print writes the human-readable report and, as the last line, the
// JSON result.
func (r *result) print(f *os.File) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(f, "servebench %s: %s metrics\n", r.Workload, kind)
	for _, m := range r.metrics {
		fmt.Fprintf(f, "  %-40s %14.6g %-6s n=%-7d %s\n", m.Name, m.Value, m.Unit, m.N, m.Note)
	}
	for _, n := range r.note {
		fmt.Fprintln(f, "  "+n)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]val, len(r.metrics))}
	for _, m := range r.metrics {
		out.Metrics[m.Name] = val{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out) // plain structs of numbers and strings always marshal
	fmt.Fprintln(f, string(b))
}

// summarizeFiles reads one JSON result from the last line of each file
// and prints, per metric, the median, quartiles and spread across them.
func summarizeFiles(f *os.File, paths []string) error {
	if len(paths) < 2 {
		return errors.New("--summarize needs at least two result files")
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		var r struct {
			Correct bool `json:"correct"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if !r.Correct {
			fmt.Fprintf(f, "%s: correct=false\n", p)
		}
		// Latencies track the CPU the hypervisor stole during the run;
		// show it so a wide spread can be told from a slow program.
		for _, l := range lines {
			if l = strings.TrimSpace(l); strings.HasPrefix(l, "machine: ") {
				fmt.Fprintf(f, "%s: %s\n", p, strings.TrimPrefix(l, "machine: "))
			}
		}
		for name, m := range r.Metrics {
			vals[name] = append(vals[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "%-40s %6s %12s %12s %12s %8s\n", "metric", "runs", "q1", "median", "q3", "spread")
	for _, n := range names {
		xs := vals[n]
		q, err := quartiles(xs)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		sp, err := spread(xs)
		sps := fmt.Sprintf("%.4f", sp)
		if err != nil {
			sps = "n/a"
		}
		fmt.Fprintf(f, "%-40s %6d %12.6g %12.6g %12.6g %8s %s\n", n, len(xs), q[0], median(xs), q[2], sps, units[n])
	}
	return nil
}
