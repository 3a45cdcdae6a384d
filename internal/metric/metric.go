// Package metric models the latency spaces underlying the peer topology
// game. Peers are points in a metric space M = (V, d); the distance
// function d gives the direct (network-level) latency between two peers,
// and the game's stretch is the ratio of overlay routing distance to d.
//
// The package provides Euclidean point sets of any dimension, explicit
// distance matrices, the paper's constructions (the exponentially spaced
// line of Figure 1, clustered instances for Figure 2), random generators,
// and validators for the metric axioms.
package metric

import (
	"errors"
	"fmt"
	"math"
)

// Space is a finite metric space over peers indexed 0..N()-1.
//
// Implementations must satisfy the metric axioms for distinct indices:
// positivity (d(i,j) > 0 for i ≠ j), symmetry, identity (d(i,i) = 0) and
// the triangle inequality. Validate checks them explicitly.
type Space interface {
	// N returns the number of points.
	N() int
	// Distance returns d(i, j). Implementations may panic on
	// out-of-range indices; callers index within [0, N()).
	Distance(i, j int) float64
}

// Positioned is implemented by spaces whose points have geometric
// coordinates, enabling visual export.
type Positioned interface {
	Space
	// Position returns the coordinates of point i. The returned slice
	// must not be modified.
	Position(i int) []float64
}

// Points is a Euclidean point set of uniform dimension. It implements
// Space and Positioned.
type Points struct {
	pts [][]float64
}

var (
	_ Space      = (*Points)(nil)
	_ Positioned = (*Points)(nil)
)

// NewPoints builds a Euclidean space from coordinate rows. All rows must
// have the same non-zero dimension, and points must be pairwise distinct
// (zero distances would make stretch undefined).
func NewPoints(pts [][]float64) (*Points, error) {
	if len(pts) == 0 {
		return nil, errors.New("metric: empty point set")
	}
	dim := len(pts[0])
	if dim == 0 {
		return nil, errors.New("metric: zero-dimensional points")
	}
	cp := make([][]float64, len(pts))
	for i, p := range pts {
		if len(p) != dim {
			return nil, fmt.Errorf("metric: point %d has dimension %d, want %d", i, len(p), dim)
		}
		cp[i] = append([]float64(nil), p...)
	}
	s := &Points{pts: cp}
	for i := 0; i < s.N(); i++ {
		for j := i + 1; j < s.N(); j++ {
			if s.Distance(i, j) == 0 {
				return nil, fmt.Errorf("metric: points %d and %d coincide", i, j)
			}
		}
	}
	return s, nil
}

// Line builds a 1-D Euclidean space from positions on the real line.
func Line(positions []float64) (*Points, error) {
	pts := make([][]float64, len(positions))
	for i, x := range positions {
		pts[i] = []float64{x}
	}
	return NewPoints(pts)
}

// N returns the number of points.
func (s *Points) N() int { return len(s.pts) }

// Distance returns the Euclidean distance between points i and j.
func (s *Points) Distance(i, j int) float64 {
	a, b := s.pts[i], s.pts[j]
	sum := 0.0
	for k := range a {
		d := a[k] - b[k]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Position returns the coordinates of point i.
func (s *Points) Position(i int) []float64 { return s.pts[i] }

// Dim returns the dimension of the point set.
func (s *Points) Dim() int { return len(s.pts[0]) }

// Matrix is a metric given by an explicit symmetric distance matrix.
type Matrix struct {
	d [][]float64
}

var _ Space = (*Matrix)(nil)

// NewMatrix builds a space from an explicit distance matrix. The matrix
// must be square with zero diagonal, symmetric, positive off-diagonal
// entries; the triangle inequality is checked too, so construction is
// O(n³). Use NewMatrixUnchecked for pre-validated data.
func NewMatrix(d [][]float64) (*Matrix, error) {
	m, err := NewMatrixUnchecked(d)
	if err != nil {
		return nil, err
	}
	if err := Validate(m); err != nil {
		return nil, err
	}
	return m, nil
}

// NewMatrixUnchecked builds a matrix space verifying only the shape
// (square, zero diagonal), not the metric axioms.
func NewMatrixUnchecked(d [][]float64) (*Matrix, error) {
	if len(d) == 0 {
		return nil, errors.New("metric: empty matrix")
	}
	cp := make([][]float64, len(d))
	for i, row := range d {
		if len(row) != len(d) {
			return nil, fmt.Errorf("metric: row %d has %d entries, want %d", i, len(row), len(d))
		}
		if row[i] != 0 {
			return nil, fmt.Errorf("metric: nonzero diagonal at %d", i)
		}
		cp[i] = append([]float64(nil), row...)
	}
	return &Matrix{d: cp}, nil
}

// FromSpace materializes any space into an explicit matrix (useful for
// caching expensive Distance implementations).
func FromSpace(s Space) *Matrix {
	n := s.N()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = s.Distance(i, j)
			}
		}
	}
	return &Matrix{d: d}
}

// N returns the number of points.
func (m *Matrix) N() int { return len(m.d) }

// Distance returns the matrix entry d[i][j].
func (m *Matrix) Distance(i, j int) float64 { return m.d[i][j] }

// Validate checks the metric axioms: zero diagonal, symmetry, positive
// off-diagonal distances, and the triangle inequality (within a small
// relative tolerance to absorb floating-point error). O(n³).
func Validate(s Space) error {
	n := s.N()
	if n == 0 {
		return errors.New("metric: empty space")
	}
	const tol = 1e-9
	for i := 0; i < n; i++ {
		if d := s.Distance(i, i); d != 0 {
			return fmt.Errorf("metric: d(%d,%d) = %v, want 0", i, i, d)
		}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dij := s.Distance(i, j)
			if dij <= 0 || math.IsNaN(dij) || math.IsInf(dij, 0) {
				return fmt.Errorf("metric: d(%d,%d) = %v, want finite positive", i, j, dij)
			}
			if dji := s.Distance(j, i); math.Abs(dij-dji) > tol*math.Max(1, dij) {
				return fmt.Errorf("metric: asymmetric d(%d,%d)=%v vs d(%d,%d)=%v", i, j, dij, j, i, dji)
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dij := s.Distance(i, j)
			for k := 0; k < n; k++ {
				if k == i || k == j {
					continue
				}
				viaK := s.Distance(i, k) + s.Distance(k, j)
				if dij > viaK*(1+tol) {
					return fmt.Errorf("metric: triangle inequality violated: d(%d,%d)=%v > d(%d,%d)+d(%d,%d)=%v",
						i, j, dij, i, k, k, j, viaK)
				}
			}
		}
	}
	return nil
}

// Scale returns a new matrix space with every distance multiplied by c.
// Scaling preserves all stretches, so game outcomes are invariant; it is
// useful for normalizing instances. c must be positive.
func Scale(s Space, c float64) (*Matrix, error) {
	if c <= 0 {
		return nil, fmt.Errorf("metric: scale factor %v must be positive", c)
	}
	m := FromSpace(s)
	for i := range m.d {
		for j := range m.d[i] {
			m.d[i][j] *= c
		}
	}
	return m, nil
}

// Uniform returns the uniform metric on n points: every pair at
// distance 1. This is the hop-count world of the Fabrikant et al.
// network-creation game, where overlay distance equals hop count.
func Uniform(n int) (*Matrix, error) {
	if n < 2 {
		return nil, fmt.Errorf("metric: uniform metric needs n ≥ 2, got %d", n)
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = 1
			}
		}
	}
	return &Matrix{d: d}, nil
}

// UnitSpace is the uniform metric stored implicitly: every off-diagonal
// distance equals one common unit, held in O(1) memory regardless of n.
// It is the internet-scale counterpart of Uniform — a dense Uniform(n)
// matrix costs n² float64s (2 GiB at n = 16384), while a UnitSpace costs
// two words at any n. UnitSpace self-classifies (SelfClassified), so the
// game core can skip its O(n²) distance materialization and
// classification scans entirely and serve the instance from a shared
// unit row plus the word-parallel BFS kernels.
type UnitSpace struct {
	n    int
	unit float64
}

var (
	_ Space          = (*UnitSpace)(nil)
	_ SelfClassified = (*UnitSpace)(nil)
)

// UniformImplicit returns the uniform metric on n points (every pair at
// distance 1) in O(1) storage. It is semantically identical to
// Uniform(n): instances built over either report the same distances,
// classify identically and evaluate bit-for-bit equally; only the
// memory footprint differs.
func UniformImplicit(n int) (*UnitSpace, error) { return UniformUnit(n, 1) }

// UniformUnit returns the uniform metric on n points with every pair at
// the given positive finite distance, in O(1) storage.
func UniformUnit(n int, unit float64) (*UnitSpace, error) {
	if n < 2 {
		return nil, fmt.Errorf("metric: uniform metric needs n ≥ 2, got %d", n)
	}
	if unit <= 0 || math.IsNaN(unit) || math.IsInf(unit, 0) {
		return nil, fmt.Errorf("metric: uniform unit %v, want finite positive", unit)
	}
	return &UnitSpace{n: n, unit: unit}, nil
}

// N returns the number of points.
func (s *UnitSpace) N() int { return s.n }

// Distance returns 0 on the diagonal and the common unit off it.
func (s *UnitSpace) Distance(i, j int) float64 {
	if i == j {
		return 0
	}
	return s.unit
}

// Unit returns the common off-diagonal distance.
func (s *UnitSpace) Unit() float64 { return s.unit }

// DistanceClass declares the space's class without a scan: uniform at
// the common unit — exactly what ClassifyFunc would compute from the
// distances (pinned by the FuzzClassify target).
func (s *UnitSpace) DistanceClass() ClassInfo {
	return ClassInfo{Kind: ClassUniform, Unit: s.unit}
}
