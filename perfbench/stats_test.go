package main

import (
	"math"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{39, 0},    // fewer than forty samples: median alone
		{40, 75},   // 10 beyond p75
		{100, 90},  // 10 beyond p90
		{199, 90},  // 9.95 beyond p95: not enough
		{200, 95},  // 10 beyond p95
		{999, 98},  // 9.99 beyond p99: not enough
		{1000, 99}, // 10 beyond p99
		{10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestTailAndMedian(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000..1, unsorted order
	}
	if m := median(xs); m != 500.5 {
		t.Errorf("median = %g, want 500.5", m)
	}
	v, p := tail(xs)
	if p != 99 || v != 990 {
		t.Errorf("tail = p%g %g, want p99 990", p, v)
	}
	// Too few samples for a tail: the median stands in.
	v, p = tail([]float64{3, 1, 2})
	if p != 50 || v != 2 {
		t.Errorf("tail of 3 samples = p%g %g, want p50 2", p, v)
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), which
// the spread of a set of runs is judged by.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %g, %g, want 1.5, 12", q1, q3)
	}
	if s := spread([]float64{1, 2, 4, 8, 16}); math.Abs(s-2.625) > 1e-12 {
		t.Errorf("spread = %g, want 2.625", s)
	}
}
