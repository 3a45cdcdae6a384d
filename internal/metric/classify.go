package metric

import "math"

// Class is the structural class of a metric's distance values. The
// evaluation kernels in internal/core dispatch on it: uniform metrics
// admit a word-parallel unit-weight BFS (overlay distance is a pure
// function of hop count), small-integer metrics admit a Dial/bucket
// -queue Dijkstra (path sums stay exact integers), and everything else
// runs the general binary-heap SSSP.
type Class int

const (
	// ClassGeneral is an arbitrary positive distance set: no structure a
	// specialized kernel can exploit.
	ClassGeneral Class = iota
	// ClassUniform means every off-diagonal distance equals one common
	// constant (the hop-count world of metric.Uniform and its scalings).
	ClassUniform
	// ClassSmallInt means every off-diagonal distance is a positive
	// integer no larger than MaxSmallIntWeight, and the metric is not
	// uniform (uniform wins when both hold).
	ClassSmallInt
)

// String names the class for tables and diagnostics.
func (c Class) String() string {
	switch c {
	case ClassUniform:
		return "uniform"
	case ClassSmallInt:
		return "small-int"
	default:
		return "general"
	}
}

// MaxSmallIntWeight is the largest integer distance the small-integer
// class admits. It bounds the bucket count of a Dial queue (one bucket
// per distinct residue, so memory and the empty-bucket scan both stay
// proportional to the weight span, not to n).
const MaxSmallIntWeight = 1 << 10

// ClassInfo describes a classified distance set.
type ClassInfo struct {
	// Kind is the selected class (uniform beats small-int when both
	// apply).
	Kind Class
	// Unit is the common distance when Kind == ClassUniform.
	Unit float64
	// MaxWeight is the largest distance as an integer when Kind ==
	// ClassSmallInt.
	MaxWeight int
}

// SelfClassified is a Space that knows its own class without a scan.
// DistanceClass must return exactly what ClassifyFunc(s.N(), s.Distance)
// would — it is a shortcut, never an override. Implementations with
// O(1)-derivable structure (UnitSpace) use it to let consumers skip the
// O(n²) classification scan; the FuzzClassify target cross-checks the
// contract against the scanning path.
type SelfClassified interface {
	Space
	DistanceClass() ClassInfo
}

// Classify returns a space's class. Spaces that self-classify
// (SelfClassified) answer in O(1); everything else is scanned with
// ClassifyFunc — O(n²) Distance calls, so spaces with expensive
// Distance should be materialized first (FromSpace) or classified via
// ClassifyFunc over a cached matrix.
func Classify(s Space) ClassInfo {
	if sc, ok := s.(SelfClassified); ok {
		return sc.DistanceClass()
	}
	return ClassifyFunc(s.N(), s.Distance)
}

// ClassifyFunc classifies the off-diagonal entries of the n×n distance
// function dist. Non-finite or non-positive entries (which the game
// core rejects at construction anyway) force ClassGeneral.
func ClassifyFunc(n int, dist func(i, j int) float64) ClassInfo {
	if n < 2 {
		return ClassInfo{Kind: ClassGeneral}
	}
	unit := dist(0, 1)
	uniform := true
	integer := true
	maxW := 0.0
	for i := 0; i < n && (uniform || integer); i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := dist(i, j)
			if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				return ClassInfo{Kind: ClassGeneral}
			}
			if d != unit {
				uniform = false
			}
			if integer {
				if d != math.Trunc(d) || d > MaxSmallIntWeight {
					integer = false
				} else if d > maxW {
					maxW = d
				}
			}
			if !uniform && !integer {
				return ClassInfo{Kind: ClassGeneral}
			}
		}
	}
	switch {
	case uniform:
		return ClassInfo{Kind: ClassUniform, Unit: unit}
	case integer:
		return ClassInfo{Kind: ClassSmallInt, MaxWeight: int(maxW)}
	}
	return ClassInfo{Kind: ClassGeneral}
}
