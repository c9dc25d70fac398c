package fixpoint

import "time"

// defaultParThreshold is the frontier size below which a parallel drain
// processes a round inline on the driver goroutine: partitioning a
// handful of variables costs more in handoff than it saves. Chosen so
// that per-round pool dispatch (~a few µs) is amortized over at least a
// few hundred relaxations.
const defaultParThreshold = 64

// RoundDriver is the parallel round driver shared by the engine's drain
// and the specialized IncSSSP maintainer. It owns the worker count, the
// lazily spawned Pool, the partition of a round's frontier into
// contiguous chunks, and the fold of per-worker busy time and work units
// into ParStats. Callers keep their own per-worker buffers, snapshot the
// frontier, and merge the buffers after Run returns.
//
// The zero value is a sequential driver. Like the maintainers it serves,
// a RoundDriver is single-writer: every method is called from the
// goroutine that drives the rounds.
type RoundDriver struct {
	threshold int // minimum frontier size to partition; 0 ⇒ default
	workers   int
	pool      *Pool
	parts     []span
	fn        func(w int) int64 // the current Run's chunk function
	task      func(w int)       // pool task: times fn and records its work
	busy      []int64           // per-worker compute nanos this round
	work      []int64           // per-worker work units this round
	roundK    int               // most chunks any Run of this round used
	wall      int64             // nanos spent in this round's Runs
	stats     ParStats
}

// span is a half-open partition [lo, hi) of a round's frontier.
type span struct{ lo, hi int }

// SetWorkers sets the worker count, treating n < 1 as 1, and reports
// whether it changed. A change releases the pool (it respawns lazily at
// the next Run); callers resize their per-worker buffers when it
// reports true.
func (d *RoundDriver) SetWorkers(n int) bool {
	if n < 1 {
		n = 1
	}
	if n == d.workers || (n <= 1 && d.workers <= 1) {
		return false
	}
	d.Close()
	d.workers = n
	d.stats.Workers = n
	if n <= 1 {
		d.parts, d.busy, d.work = nil, nil, nil
		return true
	}
	d.parts = make([]span, n)
	d.busy = make([]int64, n)
	d.work = make([]int64, n)
	if d.task == nil {
		d.task = func(w int) {
			t0 := time.Now()
			d.work[w] += d.fn(w)
			d.busy[w] += time.Since(t0).Nanoseconds()
		}
	}
	return true
}

// Workers returns the configured worker count (1 = sequential).
func (d *RoundDriver) Workers() int {
	if d.workers < 1 {
		return 1
	}
	return d.workers
}

// ParStats returns the cumulative parallel-round counters; zero-valued
// while the driver is sequential.
func (d *RoundDriver) ParStats() ParStats { return d.stats }

// Close releases the pool's goroutines, if any. The driver stays usable.
func (d *RoundDriver) Close() {
	if d.pool != nil {
		d.pool.Close()
		d.pool = nil
	}
}

// InlineRound reports whether a round with the given frontier size runs
// inline on the driver goroutine, counting it as a sequential round if so.
func (d *RoundDriver) InlineRound(frontier int) bool {
	t := d.threshold
	if t == 0 {
		t = defaultParThreshold
	}
	if frontier >= t {
		return false
	}
	d.stats.SeqRounds++
	return true
}

// Partition splits n items into at most Workers contiguous chunks of
// near-equal length and returns the chunk count k (k < Workers when n is
// smaller than the pool). Span(w) is chunk w's range until the next call.
func (d *RoundDriver) Partition(n int) int {
	if n == 0 {
		return 0
	}
	k := d.workers
	if k > n {
		k = n
	}
	chunk := (n + k - 1) / k
	k = (n + chunk - 1) / chunk // drop chunks the ceiling left empty
	for w := 0; w < k; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		d.parts[w] = span{lo, hi}
	}
	return k
}

// Span returns chunk w's half-open item range [lo, hi).
func (d *RoundDriver) Span(w int) (lo, hi int) { return d.parts[w].lo, d.parts[w].hi }

// Run calls f(0) … f(k-1) concurrently on the pool and waits for all of
// them. Each f returns the work units its chunk performed (the
// imbalance proxy); Run times every call as that worker's busy time.
func (d *RoundDriver) Run(k int, f func(w int) int64) {
	if d.pool == nil {
		d.pool = NewPool(d.workers)
	}
	if k > d.roundK {
		d.roundK = k
	}
	d.fn = f
	t0 := time.Now()
	d.pool.Run(k, d.task)
	d.wall += time.Since(t0).Nanoseconds()
}

// EndRound folds the round's per-worker accounting into ParStats and
// resets it, returning the round's total work, its busiest worker's
// nanos and its Run wall nanos. items is the round's frontier size.
// Work counts, not chunk lengths, drive the imbalance gauge, so a hub
// vertex dominating one chunk registers even though chunks have equal
// length.
func (d *RoundDriver) EndRound(items int) (work, busiest, wall int64) {
	var busy, busiestWork int64
	for w := range d.busy {
		busy += d.busy[w]
		if d.busy[w] > busiest {
			busiest = d.busy[w]
		}
		if d.work[w] > busiestWork {
			busiestWork = d.work[w]
		}
		work += d.work[w]
		d.busy[w], d.work[w] = 0, 0
	}
	wall = d.wall
	p := &d.stats
	p.ParRounds++
	p.Items += int64(items)
	p.Candidates += work
	p.BusyNanos += busy
	p.WallNanos += wall
	p.LastImbalance = 1.0
	if work > 0 {
		p.LastImbalance = float64(busiestWork) * float64(d.roundK) / float64(work)
	}
	if p.LastImbalance > p.MaxImbalance {
		p.MaxImbalance = p.LastImbalance
	}
	d.roundK, d.wall = 0, 0
	return work, busiest, wall
}
