package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100):
// the smallest sample with at least p% of the samples at or below it. It
// never interpolates, so the value is always one that was measured.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[min(max(rank(p, len(s)), 1), len(s))-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples. The
// small tolerance keeps decimal percentiles such as 99.9 from rounding up a
// whole rank.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentile picks the highest of p99.9, p99 and p90 that has at least
// ten of n samples beyond it, so a reported tail is never a single outlier.
// It reports false when n is too small for even p90.
func tailPercentile(n int) (float64, bool) {
	for _, p := range []float64{99.9, 99, 90} {
		if n-rank(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// The helpers below summarise one value per run across runs, with the
// definitions of Python's statistics module that the benchmark's bounds
// are stated in.

// median is the middle value of xs, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method of statistics.quantiles(xs, n=4). It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the inter-quartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}
