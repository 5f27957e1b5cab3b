package main

import "slices"

// rank is the nearest-rank position (1-based) of the q-quantile among n
// samples: the smallest rank with at least a share q at or below it.
func rank(n int, q float64) int {
	return int(float64(n)*q + 0.999999999)
}

// quantile returns the q-quantile of sorted by the nearest-rank rule.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(max(rank(len(sorted), q), 1), len(sorted))-1]
}

// tailSupported reports whether n samples support reporting the
// q-quantile: a tail is only reported with at least ten samples beyond
// it, so p99 needs 1000 samples and p999 needs 10000.
func tailSupported(n int, q float64) bool {
	return n-rank(n, q) >= 10
}

// tailUS returns the q-quantile of sorted nanosecond samples in µs, or 0
// when the sample does not support that tail.
func tailUS(sorted []int64, q float64) float64 {
	if !tailSupported(len(sorted), q) {
		return 0
	}
	return float64(quantile(sorted, q)) / 1e3
}

// medianF and quartiles work on small float samples (run-to-run spread).
func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), so a spread
// computed here matches one computed from the same runs elsewhere.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of the 4-quantile cut points
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // outside [0,4] when j was clamped: extrapolates
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := medianF(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / m
}
