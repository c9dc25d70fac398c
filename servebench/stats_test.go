package main

import (
	"math"
	"testing"
	"time"
)

func TestTailIndex(t *testing.T) {
	for _, tc := range []struct {
		n   int
		k   int
		pct float64
		ok  bool
	}{
		{2000, 1979, 99, true}, // p99, with 20 beyond
		{1000, 989, 99, true},  // p99, exactly 10 beyond
		{999, 988, 98.998998998999, true},
		{200, 189, 95, true},
		{71, 60, 85.91549295774648, true},
		{21, 10, 52.38095238095238, true},
		{20, 9, 50, true}, // the median itself has 10 beyond
		{19, 9, 50, false},
		{1, 0, 50, false},
		{0, 0, 50, false},
	} {
		k, pct, ok := tailIndex(tc.n)
		if k != tc.k || math.Abs(pct-tc.pct) > 1e-9 || ok != tc.ok {
			t.Errorf("tailIndex(%d) = %d, %v, %v; want %d, %v, %v", tc.n, k, pct, ok, tc.k, tc.pct, tc.ok)
		}
		if ok && tc.n-1-k < minBeyond {
			t.Errorf("n=%d: index %d leaves %d beyond", tc.n, k, tc.n-1-k)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted input
	}
	d := summarize(xs)
	if d.N != 1000 || d.P50 != 500 || d.TailP != 99 || d.Tail != 990 {
		t.Fatalf("summarize = %+v", d)
	}
	if xs[0] != 1000 {
		t.Fatal("summarize reordered its input")
	}
	if d := summarize(nil); d != (dist{}) {
		t.Fatalf("summarize(nil) = %+v", d)
	}
}

// The across-run statistics must match Python's statistics.median and
// statistics.quantiles(xs, n=4), the rule runs are judged by. Expected
// values were computed with CPython 3.11.
func TestMedianQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs  []float64
		med float64
		q   [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3, 9}, 7, [3]float64{2, 7, 9.5}},
		{[]float64{4, 2}, 3, [3]float64{1.5, 3, 4.5}}, // exclusive method extrapolates
		{[]float64{3.1, 2.9, 3.3, 3.0, 3.2, 2.8, 3.05}, 3.05, [3]float64{2.9, 3.05, 3.2}},
	} {
		if got := median(tc.xs); got != tc.med {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.med)
		}
		q, err := quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range q {
			if math.Abs(q[i]-tc.q[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, q, tc.q)
				break
			}
		}
	}
	if _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value should fail")
	}
	sp, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || math.Abs(sp-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v, %v", sp, err)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	span := interval{0, 100}
	for _, tc := range []struct {
		name string
		kids []interval
		self int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 80},
		// Three apply loops on different goroutines, overlapping: the
		// covered time is their union, counted once.
		{"overlapping", []interval{{10, 50}, {20, 60}, {30, 40}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		// Children may start before or end after the parent (a fan-out
		// call still in flight when the span is cut); only the inside
		// counts.
		{"sticking out", []interval{{-50, 10}, {90, 200}}, 80},
		{"outside", []interval{{-50, -10}, {100, 200}}, 100},
		{"covering", []interval{{-1, 101}}, 0},
		{"unsorted", []interval{{70, 80}, {10, 20}, {15, 25}}, 75},
	} {
		if got := selfTime(span, tc.kids); got != tc.self {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.self)
		}
	}
}

func TestRatioBase(t *testing.T) {
	r := ratio{24, 20480, "updates coalesced away", "raw updates applied"}
	if got, want := r.Base(), "= 24 / 20480 = updates coalesced away / raw updates applied"; got != want {
		t.Errorf("Base() = %q, want %q", got, want)
	}
	if v := r.Value(); math.Abs(v-24.0/20480) > 1e-15 {
		t.Errorf("Value() = %v", v)
	}
	if v := (ratio{Num: 3}).Value(); v != 0 {
		t.Errorf("empty base: Value() = %v, want 0", v)
	}
}

func TestOverCapacity(t *testing.T) {
	interval := 10 * time.Millisecond
	steady := make([]float64, 400)
	for i := range steady {
		steady[i] = 1
	}
	// A checkpoint stall in the middle that the writer catches up from.
	stall := append([]float64(nil), steady...)
	for i := 200; i < 220; i++ {
		stall[i] = float64(220-i) * 10
	}
	growing := make([]float64, 400)
	for i := range growing {
		growing[i] = float64(i) * 2 // 2 ms further behind on every send
	}
	for _, tc := range []struct {
		name string
		late []float64
		want bool
	}{{"steady", steady, false}, {"stall", stall, false}, {"growing", growing, true}} {
		if got, note := overCapacity(tc.late, interval); got != tc.want {
			t.Errorf("%s: overCapacity = %v (%s), want %v", tc.name, got, note, tc.want)
		}
	}
}

func TestEpochsCover(t *testing.T) {
	if !(epochs{3, 4}).covers(nil) || !(epochs{3, 4}).covers(epochs{3, 4}) || (epochs{3, 4}).covers(epochs{2, 5}) {
		t.Error("covers is not component-wise >=")
	}
}
