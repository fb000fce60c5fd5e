package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest value with at least p% of the samples at or below
// it. Empty input yields 0.
func percentile[T int64 | float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median of values (mean of the middle two when even); 0 when empty.
// The input is not modified.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// windowCounts buckets completion times into consecutive windows of
// width w starting at t0 and returns the per-window sum of weights.
// Completions outside [t0, t0+n*w) are dropped.
func windowCounts(ends []time.Duration, weights []int, w time.Duration, n int) []float64 {
	out := make([]float64, n)
	for i, e := range ends {
		if e < 0 {
			continue
		}
		k := int(e / w)
		if k >= n {
			continue
		}
		out[k] += float64(weights[i])
	}
	return out
}

// windowRates turns per-window counts into per-second rates.
func windowRates(counts []float64, w time.Duration) []float64 {
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = c / w.Seconds()
	}
	return out
}

// quartileSpread is the contract's run-to-run spread: the distance
// between the first and third quartile (exclusive method, as Python's
// statistics.quantiles(values, n=4)) as a share of the median. With fewer
// than four values the quartiles would be extrapolated beyond the data,
// so the spread is the whole range over the median; fewer than two
// values spread 0.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n < 4 {
		return ratio(s[n-1]-s[0], math.Abs(median(s)))
	}
	q := func(k int) float64 {
		// 1-based rank k*(n+1)/4, clamped to an interior pair and
		// linearly interpolated (extrapolated when clamped), exactly as
		// CPython does.
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}
