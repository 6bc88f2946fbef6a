package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 1, 7, 3, 9, 2, 8, 4, 6, 5}, 2.75, 8.25},
		{[]float64{2, 4, 4, 4, 5, 5, 7, 9, 11}, 4, 8},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("single sample: %g, %g", q1, q3)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	for _, tc := range []struct{ p, want float64 }{
		{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0, 1},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.p, got, tc.want)
		}
	}
}

// TestTailPercentile pins the rule: the highest candidate percentile up to
// the limit with at least ten samples above its rank.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50},
		{19, 50},
		{40, 75},
		{80, 75},
		{100, 90},
		{999, 95},
		{1000, 99},
		{5000, 99},
	} {
		got := tailPercentile(tc.n, 99)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
		if tc.n >= 20 && tc.n-rankOf(tc.n, got) < minBeyond {
			t.Errorf("n=%d: p%g leaves only %d samples beyond", tc.n, got, tc.n-rankOf(tc.n, got))
		}
	}
	if got := tailPercentile(100000, 99.9); got != 99.9 {
		t.Errorf("limit 99.9 over 1e5 samples = p%g", got)
	}
}
