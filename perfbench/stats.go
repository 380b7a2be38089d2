package main

import (
	"math"
	"sort"
	"time"
)

// samples collects one kind of measurement (latencies in milliseconds, or
// any other per-operation quantity) for order statistics.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration) { s.add(float64(d.Nanoseconds()) / 1e6) }

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median is the middle value (mean of the two middle values for an even
// count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := samples(xs).sorted()
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 80, 75}

// minTailSamples is the sample count below which no tail is reported: with
// fewer than forty samples the highest percentile with ten samples beyond it
// would be no tail at all.
const minTailSamples = 40

// tailPercentile returns the highest percentile of the ladder that has at
// least ten samples beyond it in a set of n samples, or 0 when n is too
// small for any tail.
func tailPercentile(n int) float64 {
	if n < minTailSamples {
		return 0
	}
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// percentile is the nearest-rank percentile p (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := samples(xs).sorted()
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// tail reports the tail of xs by the rule above: the value at the highest
// percentile with at least ten samples beyond it, and that percentile. With
// too few samples for a tail it returns the median and percentile 50.
func tail(xs []float64) (value, pct float64) {
	p := tailPercentile(len(xs))
	if p == 0 {
		return median(xs), 50
	}
	return percentile(xs, p), p
}

// quartiles returns the first and third quartile of xs by the "exclusive"
// method, the default of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	s := samples(xs).sorted()
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(j int) float64 {
		// Position j*(n+1)/4, 1-based, interpolated between neighbours.
		m := float64(n + 1)
		pos := float64(j) * m / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(m)
}
