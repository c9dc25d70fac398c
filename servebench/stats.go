package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples a reported tail percentile must
// leave above it: a percentile with fewer samples beyond it is one or two
// requests' worth of noise, not a property of the system.
const minBeyond = 10

// rankIndex is the 0-based nearest-rank index of percentile p in n
// sorted samples.
func rankIndex(n int, p float64) int {
	k := int(math.Ceil(p/100*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// tailIndex picks the tail sample of n sorted samples: p99 when at least
// minBeyond samples lie beyond it, else the highest percentile that
// still has minBeyond beyond it (the sample with exactly minBeyond
// above it). It returns the index, the percentile that index is, and
// false when the sample is too small for any tail above the median.
func tailIndex(n int) (int, float64, bool) {
	if n == 0 {
		return 0, 50, false
	}
	k := min(rankIndex(n, 99), n-1-minBeyond)
	if k < rankIndex(n, 50) {
		return rankIndex(n, 50), 50, false
	}
	return k, 100 * float64(k+1) / float64(n), true
}

// dist is a summary of one latency sample: count, median and the tail
// percentile the count supports.
type dist struct {
	N     int
	P50   float64
	TailP float64 // the percentile Tail reports
	Tail  float64
}

// summarize sorts a copy of xs and reports its median and supported
// tail. An empty sample summarizes to zeros.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k, p, _ := tailIndex(len(s))
	return dist{N: len(s), P50: s[rankIndex(len(s), 50)], TailP: p, Tail: s[k]}
}

// median is the across-runs median (mean of the two middle values for
// an even count), as Python's statistics.median gives it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns Q1, Q2, Q3 of xs by the same rule as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), which
// is how run-to-run spread is judged.
func quartiles(xs []float64) (q [3]float64, err error) {
	if len(xs) < 2 {
		return q, fmt.Errorf("quartiles need at least 2 values, got %d", len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld, m, n := len(s), len(s)+1, 4
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q, nil
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) (float64, error) {
	q, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	med := median(xs)
	if med == 0 {
		return 0, fmt.Errorf("spread of a zero median")
	}
	return (q[2] - q[0]) / math.Abs(med), nil
}

// interval is a half-open time interval [Lo, Hi) in nanoseconds.
type interval struct{ Lo, Hi int64 }

// covered returns how much of span the union of children covers. The
// children may overlap one another (they run on different goroutines:
// one apply loop per hosted class, or one fan-out call per shard) and
// may stick out of span; only the part inside span counts, and time
// covered by two children counts once.
func covered(span interval, children []interval) int64 {
	var cs []interval
	for _, c := range children {
		lo, hi := max(c.Lo, span.Lo), min(c.Hi, span.Hi)
		if lo < hi {
			cs = append(cs, interval{lo, hi})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Lo < cs[j].Lo })
	var total, curLo, curHi int64
	open := false
	for _, c := range cs {
		if open && c.Lo <= curHi {
			curHi = max(curHi, c.Hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = c.Lo, c.Hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(span interval, children []interval) int64 {
	return span.Hi - span.Lo - covered(span, children)
}

// ratio is a quotient printed with its base, so "0.02" always comes
// with the counts it was computed from.
type ratio struct {
	Num, Den float64
	NumName  string
	DenName  string
}

// Value is Num/Den, 0 when the base is empty.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

// Base renders the ratio's numerator and denominator for the report.
func (r ratio) Base() string {
	return fmt.Sprintf("= %s / %s = %s / %s", fmtNum(r.Num), fmtNum(r.Den), r.NumName, r.DenName)
}

func fmtNum(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.6g", x)
}
