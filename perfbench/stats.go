package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile for it
// to be reported: p90 needs 100 samples, p99 needs 1,000.
const minBeyond = 10

// sortedCopy returns the samples in ascending order without touching
// the caller's slice.
func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples. The epsilon keeps p·n/100 that lands on an integer from
// rounding up a rank through floating-point error (99.9·10000/100).
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the p-th percentile of samples by nearest rank and
// refuses one that fewer than minBeyond samples lie beyond, so a tail
// figure is never read off a handful of points.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	if p > 50 && n-rankOf(p, n) < minBeyond {
		return 0, fmt.Errorf("p%g needs at least %d samples beyond it, have %d samples",
			p, minBeyond, n)
	}
	return sortedCopy(samples)[rankOf(p, n)-1], nil
}

// median is the middle sample (the mean of the two middle ones for an
// even count); 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := sortedCopy(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum adds the samples.
func sum(samples []float64) float64 {
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t
}

// durations converts durations to float64 values in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
