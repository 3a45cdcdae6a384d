// Package stats provides the summary statistics used by the experiment
// harness: streaming moments (Welford), quantiles, histograms, and
// log–log linear regression for growth-exponent fits (e.g. verifying that
// the social cost of the Figure 1 family grows as Θ(αn²)).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// ErrEmpty is returned by operations that need at least one sample.
var ErrEmpty = errors.New("stats: no samples")

// Stream accumulates count, mean and variance in one pass using Welford's
// algorithm. The zero value is an empty stream ready to use.
type Stream struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add inserts one observation.
func (s *Stream) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		s.min = math.Min(s.min, x)
		s.max = math.Max(s.max, x)
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Stream) N() int { return s.n }

// Mean returns the running mean (0 for an empty stream).
func (s *Stream) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 samples).
func (s *Stream) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Min returns the smallest observation (0 for an empty stream).
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty stream).
func (s *Stream) Max() float64 { return s.max }

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Histogram is a fixed-width bucket histogram over [Lo, Hi). Samples
// outside the range are clamped into the first/last bucket.
type Histogram struct {
	Lo, Hi  float64
	Counts  []int
	total   int
	clamped int
}

// NewHistogram creates a histogram with the given bounds and bucket count.
func NewHistogram(lo, hi float64, buckets int) (*Histogram, error) {
	if buckets <= 0 {
		return nil, fmt.Errorf("stats: histogram needs at least 1 bucket, got %d", buckets)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: histogram bounds [%v, %v) are empty", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, buckets)}, nil
}

// Add inserts a sample, clamping out-of-range values to the edge buckets.
func (h *Histogram) Add(x float64) {
	b := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if b < 0 {
		b = 0
		h.clamped++
	} else if b >= len(h.Counts) {
		b = len(h.Counts) - 1
		h.clamped++
	}
	h.Counts[b]++
	h.total++
}

// Total returns the number of samples added.
func (h *Histogram) Total() int { return h.total }

// Clamped returns how many samples fell outside [Lo, Hi).
func (h *Histogram) Clamped() int { return h.clamped }

// String renders a compact ASCII bar chart.
func (h *Histogram) String() string {
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var sb strings.Builder
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		bar := 0
		if maxCount > 0 {
			bar = c * 40 / maxCount
		}
		fmt.Fprintf(&sb, "[%8.3f, %8.3f) %6d %s\n",
			h.Lo+float64(i)*width, h.Lo+float64(i+1)*width, c, strings.Repeat("#", bar))
	}
	return sb.String()
}

// LinReg holds an ordinary-least-squares fit y = Slope*x + Intercept.
type LinReg struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// Fit computes the least-squares line through (xs, ys).
func Fit(xs, ys []float64) (LinReg, error) {
	if len(xs) != len(ys) {
		return LinReg{}, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinReg{}, errors.New("stats: regression needs at least 2 points")
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinReg{}, errors.New("stats: degenerate regression (constant x)")
	}
	slope := sxy / sxx
	fit := LinReg{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		fit.R2 = sxy * sxy / (sxx * syy)
	} else {
		fit.R2 = 1 // all ys identical and perfectly fit by slope 0
	}
	return fit, nil
}

// FitLogLog fits log(y) = e*log(x) + c, returning the growth exponent e.
// It is how the harness verifies claims like C_S(n) ∈ Θ(n²): the fitted
// exponent should be ~2. All xs and ys must be positive.
func FitLogLog(xs, ys []float64) (LinReg, error) {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	if len(xs) != len(ys) {
		return LinReg{}, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return LinReg{}, fmt.Errorf("stats: log-log fit needs positive data, got (%v, %v)", xs[i], ys[i])
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	return Fit(lx, ly)
}
