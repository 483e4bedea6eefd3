package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted: the
// smallest sample with at least q of the samples at or below it. It is a
// value that was measured, never an interpolation. NaN on an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of vals (mean of the two middle values on
// an even count) without reordering the caller's slice. NaN values — a
// segment with no sample of that kind — are left out. NaN when nothing is
// left.
func median(vals []float64) float64 {
	s := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) {
			s = append(s, v)
		}
	}
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// mean returns the arithmetic mean, NaN on an empty slice.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// quartileSpread returns (Q3 − Q1) / median with the quartiles computed as
// Python's statistics.quantiles(values, n=4) computes them (the exclusive
// method) — the figure the benchmark driver holds against each bound. It
// needs at least two values.
func quartileSpread(vals []float64) float64 {
	if len(vals) < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s)
	quart := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quart(3) - quart(1)) / median(s)
}
