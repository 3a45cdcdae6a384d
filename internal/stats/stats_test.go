package stats

import (
	"math"
	"strings"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestStreamBasics(t *testing.T) {
	var s Stream
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if !almostEq(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %f, want 5", s.Mean())
	}
	// Sample variance of this classic dataset is 32/7.
	if !almostEq(s.Var(), 32.0/7.0, 1e-12) {
		t.Errorf("Var = %f, want %f", s.Var(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %f/%f, want 2/9", s.Min(), s.Max())
	}
}

func TestStreamEmptyAndSingle(t *testing.T) {
	var s Stream
	if s.Mean() != 0 || s.Var() != 0 || s.N() != 0 {
		t.Fatal("empty stream should report zeros")
	}
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Var() != 0 || s.Min() != 3.5 || s.Max() != 3.5 {
		t.Fatal("single-sample stream wrong")
	}
}

func TestMean(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) err = %v, want ErrEmpty", err)
	}
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || m != 2.5 {
		t.Errorf("Mean = %f, %v; want 2.5, nil", m, err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil || !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %f, %v; want %f", c.q, got, err, c.want)
		}
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Error("Quantile mutated its input")
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Errorf("empty quantile err = %v", err)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("out-of-range q should error")
	}
}

func TestQuantileSingle(t *testing.T) {
	got, err := Quantile([]float64{7}, 0.99)
	if err != nil || got != 7 {
		t.Errorf("Quantile single = %f, %v", got, err)
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 1.9, 2, 5, 9.99, -3, 42} {
		h.Add(x)
	}
	if h.Total() != 7 {
		t.Errorf("Total = %d, want 7", h.Total())
	}
	if h.Clamped() != 2 {
		t.Errorf("Clamped = %d, want 2", h.Clamped())
	}
	// Bucket 0 holds {0, 1.9, -3}; bucket 1 holds {2}; bucket 2 holds {5};
	// bucket 4 holds {9.99, 42}.
	want := []int{3, 1, 1, 0, 2}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if !strings.Contains(h.String(), "#") {
		t.Error("String should contain bars")
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("zero buckets should error")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("empty range should error")
	}
}

func TestFitExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	fit, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 2, 1e-12) || !almostEq(fit.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if !almostEq(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %f, want 1", fit.R2)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
	if _, err := Fit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Fit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("constant x should error")
	}
}

func TestFitLogLogRecoversExponent(t *testing.T) {
	// y = 4 n^2 → log-log slope 2.
	var xs, ys []float64
	for n := 4; n <= 256; n *= 2 {
		xs = append(xs, float64(n))
		ys = append(ys, 4*float64(n)*float64(n))
	}
	fit, err := FitLogLog(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 2, 1e-9) {
		t.Errorf("exponent = %f, want 2", fit.Slope)
	}
}

func TestFitLogLogRejectsNonPositive(t *testing.T) {
	if _, err := FitLogLog([]float64{1, 0}, []float64{1, 2}); err == nil {
		t.Error("non-positive x should error")
	}
	if _, err := FitLogLog([]float64{1, 2}, []float64{1, -2}); err == nil {
		t.Error("non-positive y should error")
	}
}

func TestFitConstantY(t *testing.T) {
	fit, err := Fit([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope != 0 || fit.Intercept != 5 {
		t.Errorf("constant fit = %+v", fit)
	}
}
