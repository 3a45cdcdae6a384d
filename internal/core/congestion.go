package core

import (
	"fmt"
	"math"
)

// Congestion is the paper's Section 6 future-work extension ("it would
// be interesting to incorporate aspects such as overlay routing and
// congestion into our model"): a peer that many others point to becomes
// slow, so the effective latency of the link u→v is inflated by v's
// in-degree:
//
//	w(u, v) = d(u, v) · (1 + γ · indeg(v))
//
// γ = 0 recovers the paper's base model. Positive γ penalizes hub
// topologies: the star's center would absorb n−1 incoming links and slow
// every route through it, so selfish equilibria spread load.
//
// Congestion is configured per instance with WithCongestion.
func WithCongestion(gamma float64) Option {
	return func(in *Instance) { in.congestionGamma = gamma }
}

// CongestionGamma returns the congestion coefficient γ (0 = disabled).
func (in *Instance) CongestionGamma() float64 { return in.congestionGamma }

// indegrees computes the in-degree of every peer under p with the
// override applied, into the provided buffer.
func indegrees(p Profile, override int, alt Strategy, buf []int) {
	for i := range buf {
		buf[i] = 0
	}
	for u := 0; u < p.N(); u++ {
		strategyOf(p, u, override, alt).ForEach(func(j int) bool {
			buf[j]++
			return true
		})
	}
}

// validateCongestion rejects non-finite or negative γ at construction.
func validateCongestion(gamma float64) error {
	if gamma < 0 || math.IsNaN(gamma) || math.IsInf(gamma, 0) {
		return fmt.Errorf("core: invalid congestion γ = %v", gamma)
	}
	return nil
}
