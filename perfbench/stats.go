package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie above a reported percentile for it
// to count as measured rather than as the run's maximum in disguise.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples, which need not be sorted. It returns 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
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

// samplesAbove is how many of n samples lie above the nearest-rank p-th
// percentile.
func samplesAbove(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailResolved reports whether n samples leave at least minTail samples
// above the p-th percentile: p95 needs 200 samples, p50 needs 20.
func tailResolved(n int, p float64) bool { return samplesAbove(n, p) >= minTail }

// median is the 50th percentile.
func median(samples []float64) float64 { return percentile(samples, 50) }

// ms converts a duration to fractional milliseconds, keeping every digit.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, returning 0 for an empty base instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
