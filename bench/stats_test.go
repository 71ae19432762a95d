package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of %v = %g, want %g", c.p, xs, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("p50 of unsorted input = %g, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("p50 of no samples is not NaN")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %g, %g; want 0.75, 2.25", q1, q3)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(1..4) = %g, want 2.5", got)
	}
}

func TestJudge(t *testing.T) {
	parent := side{values: []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}}
	shift := func(s side, d float64) side {
		out := side{values: make([]float64, len(s.values))}
		for i, x := range s.values {
			out.values[i] = x + d
		}
		return out
	}
	firstN := func(s side, n int) side { return side{values: s.values[:n]} }
	failedRun := shift(parent, -10)
	failedRun.failed, failedRun.incorrect = 1, 1
	for _, c := range []struct {
		name        string
		change      side
		lowerBetter bool
		want        string
	}{
		{"faster every pair", shift(parent, -10), true, "gain"},
		{"same", parent, true, "no regression"},
		{"slower beyond the bound", shift(parent, 15), true, "regression"},
		{"slower every pair, within the bound", shift(parent, 5), true, "slower"},
		{"slower within the parent's spread", shift(parent, 1), true, "no regression"},
		{"higher is better", shift(parent, 10), false, "gain"},
		{"nine pairs are too few for a gain", firstN(shift(parent, -10), 9), true, "no regression"},
		{"faster, but a run failed its checks", failedRun, true, "failed"},
		{"no metrics from a failed run", side{failed: 1, incorrect: 1}, true, "failed"},
	} {
		if got := judge(parent, c.change, c.lowerBetter, 0.1).Verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	// More failed operations than the parent is a failure even when every
	// run still reports correct, and the same count as the parent is not.
	flaky := shift(parent, -10)
	flaky.failed = 1
	if got := judge(parent, flaky, true, 0.1).Verdict; got != "failed" {
		t.Errorf("more failed operations: verdict %q, want failed", got)
	}
	parentFlaky := parent
	parentFlaky.failed = 1
	if got := judge(parentFlaky, flaky, true, 0.1).Verdict; got != "gain" {
		t.Errorf("as many failed operations as the parent: verdict %q, want gain", got)
	}

	// Eight wins in ten pairs is not a gain, however large the difference.
	change := shift(parent, -10)
	change.values[0], change.values[1] = 200, 200
	if got := judge(parent, change, true, 0.5).Verdict; got == "gain" {
		t.Errorf("8/10 wins judged a gain")
	}

	// A parent whose own spread exceeds the bound cannot show "no
	// regression" unless every change run beats every parent run.
	noisy := side{values: []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}}
	if got := judge(noisy, noisy, true, 0.1).Verdict; got != "unresolved" {
		t.Errorf("noisy parent: verdict %q, want unresolved", got)
	}
	if got := judge(noisy, firstN(shift(noisy, -101), 3), true, 0.1).Verdict; got != "no regression" {
		t.Errorf("noisy parent, every change run better: verdict %q, want no regression", got)
	}
}
