package metric

import (
	"math"
	"testing"
	"testing/quick"

	"selfishnet/internal/rng"
)

func TestNewPointsValidation(t *testing.T) {
	if _, err := NewPoints(nil); err == nil {
		t.Error("empty point set should error")
	}
	if _, err := NewPoints([][]float64{{}}); err == nil {
		t.Error("zero-dimensional points should error")
	}
	if _, err := NewPoints([][]float64{{0, 0}, {1}}); err == nil {
		t.Error("ragged dimensions should error")
	}
	if _, err := NewPoints([][]float64{{1, 2}, {1, 2}}); err == nil {
		t.Error("coinciding points should error")
	}
}

func TestPointsDistance(t *testing.T) {
	s, err := NewPoints([][]float64{{0, 0}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Distance(0, 1); d != 5 {
		t.Errorf("Distance = %f, want 5", d)
	}
	if d := s.Distance(0, 0); d != 0 {
		t.Errorf("self distance = %f, want 0", d)
	}
	if s.Dim() != 2 {
		t.Errorf("Dim = %d, want 2", s.Dim())
	}
}

func TestPointsDefensiveCopy(t *testing.T) {
	raw := [][]float64{{0}, {1}}
	s, err := NewPoints(raw)
	if err != nil {
		t.Fatal(err)
	}
	raw[1][0] = 100
	if d := s.Distance(0, 1); d != 1 {
		t.Errorf("mutating input changed space: d = %f", d)
	}
}

func TestLine(t *testing.T) {
	s, err := Line([]float64{0, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Distance(1, 2); d != 3 {
		t.Errorf("line distance = %f, want 3", d)
	}
	if err := Validate(s); err != nil {
		t.Errorf("line metric invalid: %v", err)
	}
}

func TestMatrixValidation(t *testing.T) {
	// Valid 3-point metric.
	good := [][]float64{
		{0, 1, 2},
		{1, 0, 1.5},
		{2, 1.5, 0},
	}
	if _, err := NewMatrix(good); err != nil {
		t.Errorf("valid matrix rejected: %v", err)
	}
	// Triangle violation: d(0,2) = 10 > 1 + 1.5.
	bad := [][]float64{
		{0, 1, 10},
		{1, 0, 1.5},
		{10, 1.5, 0},
	}
	if _, err := NewMatrix(bad); err == nil {
		t.Error("triangle violation not caught")
	}
	// Asymmetric.
	asym := [][]float64{
		{0, 1, 2},
		{1.5, 0, 1.5},
		{2, 1.5, 0},
	}
	if _, err := NewMatrix(asym); err == nil {
		t.Error("asymmetry not caught")
	}
	// Nonzero diagonal.
	diag := [][]float64{
		{1, 1},
		{1, 0},
	}
	if _, err := NewMatrixUnchecked(diag); err == nil {
		t.Error("nonzero diagonal not caught")
	}
	// Ragged.
	if _, err := NewMatrixUnchecked([][]float64{{0, 1}, {1}}); err == nil {
		t.Error("ragged matrix not caught")
	}
	if _, err := NewMatrixUnchecked(nil); err == nil {
		t.Error("empty matrix not caught")
	}
}

func TestFromSpaceRoundTrip(t *testing.T) {
	s, err := NewPoints([][]float64{{0, 0}, {1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	m := FromSpace(s)
	for i := 0; i < s.N(); i++ {
		for j := 0; j < s.N(); j++ {
			if m.Distance(i, j) != s.Distance(i, j) {
				t.Fatalf("FromSpace mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestScalePreservesRatios(t *testing.T) {
	s, err := Line([]float64{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Scale(s, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Distance(0, 2); d != 7.5 {
		t.Errorf("scaled distance = %f, want 7.5", d)
	}
	if _, err := Scale(s, 0); err == nil {
		t.Error("zero scale should error")
	}
}

func TestValidateCatchesInfNaN(t *testing.T) {
	m, err := NewMatrixUnchecked([][]float64{
		{0, math.Inf(1)},
		{math.Inf(1), 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(m); err == nil {
		t.Error("infinite distance not caught")
	}
}

func TestUniformPointsAreValidMetric(t *testing.T) {
	r := rng.New(1)
	for _, dim := range []int{1, 2, 3} {
		s, err := UniformPoints(r, 20, dim)
		if err != nil {
			t.Fatal(err)
		}
		if s.N() != 20 {
			t.Fatalf("N = %d, want 20", s.N())
		}
		if err := Validate(s); err != nil {
			t.Errorf("uniform dim=%d: %v", dim, err)
		}
	}
	if _, err := UniformPoints(r, 0, 2); err == nil {
		t.Error("n=0 should error")
	}
}

func TestExponentialLinePositions(t *testing.T) {
	const alpha = 4.0
	s, err := ExponentialLine(6, alpha)
	if err != nil {
		t.Fatal(err)
	}
	// Paper positions (1-based): odd i at α^{i-1}/2, even i at α^{i-1}.
	want := []float64{
		0.5,                    // i=1: α^0/2
		alpha,                  // i=2: α^1
		alpha * alpha / 2,      // i=3: α^2/2
		math.Pow(alpha, 3),     // i=4
		math.Pow(alpha, 4) / 2, // i=5
		math.Pow(alpha, 5),     // i=6
	}
	for p := range want {
		got := s.Position(p)[0]
		if math.Abs(got-want[p]) > 1e-12 {
			t.Errorf("position[%d] = %f, want %f", p, got, want[p])
		}
	}
	// Positions strictly increase: each peer's left neighbor is peer p-1.
	for p := 1; p < s.N(); p++ {
		if s.Position(p)[0] <= s.Position(p - 1)[0] {
			t.Errorf("positions not increasing at %d", p)
		}
	}
	if _, err := ExponentialLine(1, alpha); err == nil {
		t.Error("n=1 should error")
	}
	if _, err := ExponentialLine(5, 1.0); err == nil {
		t.Error("alpha=1 should error")
	}
	if _, err := ExponentialLine(5, 2.0); err == nil {
		t.Error("alpha=2 should error (positions coincide)")
	}
	if _, err := ExponentialLine(500, 16); err == nil {
		t.Error("overflowing positions should error, not go infinite")
	}
}

func TestRing(t *testing.T) {
	s, err := Ring(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(s); err != nil {
		t.Fatal(err)
	}
	// Opposite points are at distance 2r.
	if d := s.Distance(0, 4); math.Abs(d-2) > 1e-12 {
		t.Errorf("antipodal distance = %f, want 2", d)
	}
	// Symmetry of the ring: consecutive gaps all equal.
	g := s.Distance(0, 1)
	for i := 1; i < 8; i++ {
		if math.Abs(s.Distance(i, (i+1)%8)-g) > 1e-12 {
			t.Errorf("ring gap %d differs", i)
		}
	}
}

func TestGrid(t *testing.T) {
	s, err := Grid(2, 3, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 6 {
		t.Fatalf("N = %d, want 6", s.N())
	}
	if d := s.Distance(0, 1); d != 2 {
		t.Errorf("neighbor distance = %f, want 2", d)
	}
	if d := s.Distance(0, 5); math.Abs(d-math.Sqrt(4+16)) > 1e-12 {
		t.Errorf("diagonal distance = %f", d)
	}
	if _, err := Grid(1, 1, 1); err == nil {
		t.Error("1x1 grid should error")
	}
}

func TestClustered(t *testing.T) {
	s, err := Clustered([]ClusterSpec{
		{Center: []float64{0, 0}, Count: 3, Diameter: 0.01},
		{Center: []float64{10, 0}, Count: 2, Diameter: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d, want 5", s.N())
	}
	// Intra-cluster distances small, inter-cluster large.
	if d := s.Distance(0, 2); d > 0.011 {
		t.Errorf("intra-cluster distance = %f too large", d)
	}
	if d := s.Distance(0, 3); d < 9 {
		t.Errorf("inter-cluster distance = %f too small", d)
	}
	if err := Validate(s); err != nil {
		t.Fatal(err)
	}
}

func TestClusteredErrors(t *testing.T) {
	if _, err := Clustered(nil); err == nil {
		t.Error("no clusters should error")
	}
	if _, err := Clustered([]ClusterSpec{{Center: []float64{0}, Count: 0}}); err == nil {
		t.Error("zero count should error")
	}
	if _, err := Clustered([]ClusterSpec{
		{Center: []float64{0}, Count: 1},
		{Center: []float64{0, 1}, Count: 1},
	}); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestClusteredRandom(t *testing.T) {
	r := rng.New(2)
	s, err := ClusteredRandom(r, 30, 3, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 30 {
		t.Fatalf("N = %d", s.N())
	}
	if err := Validate(s); err != nil {
		t.Fatal(err)
	}
	if _, err := ClusteredRandom(r, 5, 10, 0.01); err == nil {
		t.Error("k > n should error")
	}
}

func TestQuickEuclideanIsMetric(t *testing.T) {
	// Property: any set of distinct random points forms a valid metric.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		s, err := UniformPoints(r, 8, 2)
		if err != nil {
			return false
		}
		return Validate(s) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestQuickTriangleOnRandomLines(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(8)
		pos := make([]float64, n)
		used := map[float64]bool{}
		for i := range pos {
			for {
				x := r.Range(-100, 100)
				if !used[x] {
					used[x] = true
					pos[i] = x
					break
				}
			}
		}
		s, err := Line(pos)
		if err != nil {
			return false
		}
		return Validate(s) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
