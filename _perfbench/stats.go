package main

import (
	"math"
	"sort"
)

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least minBeyond
// samples above it: the value at sorted rank n-minBeyond-1, with the
// percentile that rank stands for. Fewer samples than minBeyond+1 give the
// maximum at percentile 100.
func tail(xs []float64, minBeyond int) (value, pct float64) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	i := n - minBeyond - 1
	if i < 0 {
		return s[n-1], 100
	}
	return s[i], 100 * float64(i+1) / float64(n)
}
