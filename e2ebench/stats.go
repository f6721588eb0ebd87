package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples. xs is not
// modified. An infinite sample (a failed request) sorts last.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <=
// 100): the smallest sample with at least p% of the samples at or
// below it. NaN for no samples. Nearest rank never interpolates, so a
// failed request's +Inf shows up as +Inf once it reaches the rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is the number of samples strictly above the nearest-rank p-th
// percentile of n samples. A percentile is reported as a tail figure
// only when at least ten samples lie beyond it.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailPercentile is the highest of p99, p95 and p90 that has at least
// ten of n samples beyond it, or p90 when none has.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90} {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 90
}

// geomean returns the geometric mean of xs (positive samples), or NaN
// for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
