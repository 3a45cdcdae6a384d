// Package construct builds the paper's concrete instances and
// strategies: the Figure 1 lower-bound family on the exponential line
// (Lemmas 4.2/4.3, Theorem 4.4), the optimal line topology G̃, and the
// Figure 2 five-cluster instance I_k with its Figure 3 candidate
// configurations (Lemma 5.2, Theorem 5.1).
package construct

import (
	"fmt"
	"math"

	"selfishnet/internal/core"
	"selfishnet/internal/metric"
)

// Figure1MinAlpha is the paper's α threshold: Lemma 4.2 proves the
// Figure 1 topology is a Nash equilibrium for α ≥ 3.4.
const Figure1MinAlpha = 3.4

// Figure1 is the lower-bound construction: n peers on the exponential
// line with the paper's link structure.
type Figure1 struct {
	Instance *core.Instance
	// Profile is the drawn topology G: every peer links to its nearest
	// left neighbor; odd (paper-indexed) peers also link to the second
	// nearest peer on their right.
	Profile core.Profile
}

// NewFigure1 builds the Figure 1 instance and topology for n peers and
// the given α (which is both the game parameter and the geometric base
// of the line positions, as in the paper).
//
// Peer indexing: peer p (0-based) is the paper's peer i = p+1. Positions
// are α^{i-1}/2 for odd i and α^{i-1} for even i, so distances grow
// exponentially to the right.
//
// For even n the paper's rule leaves the last even peer with no incoming
// link from the left (its would-be linker i = n-1 has no "second nearest
// right"); the standard completion links the last odd peer to its
// nearest right neighbor instead, preserving connectivity. Use odd n to
// match the paper's drawing exactly.
func NewFigure1(n int, alpha float64) (*Figure1, error) {
	if n < 3 {
		return nil, fmt.Errorf("construct: figure 1 needs n ≥ 3, got %d", n)
	}
	space, err := metric.ExponentialLine(n, alpha)
	if err != nil {
		return nil, err
	}
	inst, err := core.NewInstance(space, alpha)
	if err != nil {
		return nil, err
	}
	p := core.NewProfile(n)
	for pi := 0; pi < n; pi++ {
		i := pi + 1 // paper's 1-based index
		// Nearest left neighbor.
		if pi > 0 {
			if err := p.AddLink(pi, pi-1); err != nil {
				return nil, err
			}
		}
		// Odd peers: second nearest right (i+2), or nearest right as the
		// boundary completion when i+2 exceeds n.
		if i%2 == 1 {
			switch {
			case pi+2 < n:
				if err := p.AddLink(pi, pi+2); err != nil {
					return nil, err
				}
			case pi+1 < n:
				if err := p.AddLink(pi, pi+1); err != nil {
					return nil, err
				}
			}
		}
	}
	return &Figure1{Instance: inst, Profile: p}, nil
}

// OptimalLineCost returns C(G̃) = 2α(n-1) + n(n-1), the closed form the
// paper uses to upper-bound the optimal social cost: G̃ (opt.Chain on a
// line with indices sorted by position) links every peer to its nearest
// neighbor on each side, and on a line every stretch is 1.
func OptimalLineCost(n int, alpha float64) float64 {
	return 2*alpha*float64(n-1) + float64(n)*float64(n-1)
}

// Lemma42BenefitBound returns the paper's closed-form bound on the total
// savings B_i an even peer could gain by adding the link (i, i+1):
//
//	B_i < (4α² − 1) / (α² − 1)
//
// Lemma 4.2 concludes the link is not worth building when this bound is
// at most α + 1, which holds for all α ≥ 3.4.
func Lemma42BenefitBound(alpha float64) float64 {
	return (4*alpha*alpha - 1) / (alpha*alpha - 1)
}

// Lemma42Holds reports whether the lemma's inequality B_i < α + 1 is
// satisfied by the closed-form bound at the given α.
func Lemma42Holds(alpha float64) bool {
	if alpha <= 1 {
		return false
	}
	return Lemma42BenefitBound(alpha) < alpha+1
}

// Lemma42Threshold computes the smallest α (to within tol) for which
// the closed-form benefit bound satisfies B_i < α+1, by bisection. The
// paper rounds this threshold to 3.4.
func Lemma42Threshold(tol float64) float64 {
	if tol <= 0 {
		tol = 1e-9
	}
	lo, hi := 1.0+1e-9, 100.0
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if Lemma42Holds(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// Lemma42Benefit computes the exact benefit series of Lemma 4.2: the
// total stretch savings B_i available to an even-indexed (paper) peer i
// from adding the link (i, i+1), summed in closed form over the first
// `terms` peers to the right (the series converges geometrically).
//
//	B_{i,j} = (2 − 1/α) / (α^{j-i}/2 − 1)   for odd j > i
//	B_{i,j} = (2 − 1/α) / (α^{j-i} − 1)     for even j > i
func Lemma42Benefit(alpha float64, terms int) float64 {
	if terms <= 0 {
		terms = 64
	}
	sum := 0.0
	for delta := 1; delta <= terms; delta++ {
		var denom float64
		if delta%2 == 1 { // odd j = i + delta
			denom = math.Pow(alpha, float64(delta))/2 - 1
		} else {
			denom = math.Pow(alpha, float64(delta)) - 1
		}
		if denom <= 0 {
			return math.Inf(1)
		}
		sum += (2 - 1/alpha) / denom
	}
	return sum
}
