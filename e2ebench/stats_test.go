package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
		{[]float64{1, 2, math.Inf(1)}, 2},
		{[]float64{1, math.Inf(1)}, math.Inf(1)},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// oneTo returns 1, 2, ..., n.
func oneTo(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{100, 50, 50, 50},
		{100, 99, 99, 1},
		{1000, 99, 990, 10},
		{1200, 99, 1188, 12},
		{10, 99, 10, 0},
		{1, 50, 1, 0},
		{300, 95, 285, 15},
	} {
		xs := oneTo(tc.n)
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v of 1..%d = %v, want %v", tc.p, tc.n, got, tc.want)
		}
		if got := beyond(tc.n, tc.p); got != tc.wantBeyond {
			t.Errorf("samples beyond p%v of %d = %d, want %d", tc.p, tc.n, got, tc.wantBeyond)
		}
	}
	if beyond(0, 99) != 0 || !math.IsNaN(percentile(nil, 99)) {
		t.Error("empty sample set mishandled")
	}
}

func TestPercentileCountsFailuresAsMissingTheLimit(t *testing.T) {
	xs := oneTo(100)
	xs[0] = math.Inf(1) // one failed request
	if got := percentile(xs, 99); math.IsInf(got, 1) {
		t.Errorf("p99 with 1 failure in 100 = %v, want finite", got)
	}
	xs[1] = math.Inf(1) // two failed requests reach the 99th rank
	if got := percentile(xs, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2 failures in 100 = %v, want +Inf", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{2000: 99, 1000: 99, 999: 95, 527: 95, 200: 95, 150: 90, 20: 90} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = p%v, want p%v", n, got, want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	if got := geomean([]float64{5}); math.Abs(got-5) > 1e-12 {
		t.Errorf("geomean(5) = %v", got)
	}
	if got := geomean([]float64{1, math.Inf(1)}); !math.IsInf(got, 1) {
		t.Errorf("a failed route's +Inf median must carry through, got %v", got)
	}
	if !math.IsNaN(geomean(nil)) {
		t.Error("geomean of no samples is not NaN")
	}
}
