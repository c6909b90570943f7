package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// an ascending slice: the smallest sample with at least p% of the
// samples at or below it. It returns NaN for an empty slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	return asc[rank(len(asc), p)]
}

// rank is the 0-based index of the nearest-rank p-th percentile of n
// ascending samples. The tolerance keeps p values with no exact binary
// form (99.9) from rounding up a whole rank.
func rank(n int, p float64) int {
	k := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	return max(0, min(k, n-1))
}

// median is the nearest-rank 50th percentile of xs in any order.
func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// beyond reports how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, p)
}

// tailPercentiles are the percentiles a report may name as its tail,
// highest first.
var tailPercentiles = []float64{99.9, 99, 90, 75, 50}

// tailPercentile returns the highest of tailPercentiles that has at
// least ten of n samples beyond it, and false when even the median
// lacks ten.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// mean is the arithmetic mean, NaN for no values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cv is the coefficient of variation (population standard deviation
// over the mean).
func cv(xs []float64) float64 {
	m := mean(xs)
	if len(xs) == 0 || m == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs))) / m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }
