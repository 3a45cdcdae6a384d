// Package baseline implements the two network-creation games the paper
// positions itself against, on top of the same engine:
//
//   - Fabrikant et al. (PODC 2003): undirected unilateral link purchase,
//     cost α·|s_i| + Σ_j dist_G(i,j) with unit-length edges (hop count).
//     The paper credits this line of work and departs from it by using
//     stretch (locality) and directed links.
//
//   - Corbo & Parkes (PODC 2005): bilateral link formation — both
//     endpoints consent and both pay α — analyzed under pairwise
//     stability instead of Nash.
//
// Comparing equilibria of the three games on the same peer set is
// experiment E-baselines.
package baseline

import (
	"fmt"

	"selfishnet/internal/bestresponse"
	"selfishnet/internal/core"
	"selfishnet/internal/metric"
)

// NewFabrikant builds the Fabrikant et al. instance on n vertices: a
// uniform metric (every pair at distance 1, so overlay distance is hop
// count), undirected traversal, and the raw-distance cost model.
func NewFabrikant(n int, alpha float64) (*core.Instance, error) {
	space, err := metric.Uniform(n)
	if err != nil {
		return nil, err
	}
	return core.NewInstance(space, alpha,
		core.WithModel(core.DistanceModel),
		core.WithUndirected(),
	)
}

// NewBilateral builds the Corbo–Parkes style bilateral game over a
// metric space: distances are the cost terms and links are undirected
// edges paid for by both endpoints. Profiles for this game must be
// symmetric (j ∈ s_i ⇔ i ∈ s_j); each endpoint's α·|s_i| then charges
// the edge to both, as the model requires.
func NewBilateral(space metric.Space, alpha float64) (*core.Instance, error) {
	return core.NewInstance(space, alpha,
		core.WithModel(core.DistanceModel),
	)
}

// Symmetric reports whether the profile is a valid bilateral
// configuration: every link is mutual.
func Symmetric(p core.Profile) bool {
	for _, l := range p.Links() {
		if !p.HasLink(l[1], l[0]) {
			return false
		}
	}
	return true
}

// PairwiseReport is the outcome of a pairwise-stability check.
type PairwiseReport struct {
	Stable bool
	// DropViolations lists edges some endpoint strictly wants to drop.
	DropViolations [][2]int
	// AddViolations lists absent edges both endpoints strictly want to
	// add (each paying α).
	AddViolations [][2]int
}

// PairwiseStable checks Corbo–Parkes pairwise stability of a symmetric
// profile: no endpoint gains by unilaterally dropping one of its edges,
// and no absent edge would strictly benefit both endpoints if added
// with both paying α. tol is the strict-improvement tolerance.
func PairwiseStable(ev *core.Evaluator, p core.Profile, tol float64) (PairwiseReport, error) {
	if !Symmetric(p) {
		return PairwiseReport{}, fmt.Errorf("baseline: profile is not symmetric")
	}
	if tol <= 0 {
		tol = bestresponse.Tolerance
	}
	n := ev.Instance().N()
	rep := PairwiseReport{Stable: true}

	evalOf := func(q core.Profile, i int) core.Eval { return ev.PeerEval(q, i) }

	// Drop deviations: removing the mutual edge {i,j} (both directions,
	// since a bilateral edge ceases to exist when either side cancels).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !p.HasLink(i, j) {
				continue
			}
			q := p.Clone()
			if err := q.RemoveLink(i, j); err != nil {
				return PairwiseReport{}, err
			}
			if err := q.RemoveLink(j, i); err != nil {
				return PairwiseReport{}, err
			}
			for _, end := range []int{i, j} {
				if evalOf(q, end).Better(evalOf(p, end), tol) {
					rep.Stable = false
					rep.DropViolations = append(rep.DropViolations, [2]int{i, j})
					break
				}
			}
		}
	}
	// Add deviations: inserting the mutual edge {i,j} must strictly help
	// BOTH endpoints to count as a violation (bilateral consent).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if p.HasLink(i, j) {
				continue
			}
			q := p.Clone()
			if err := q.AddLink(i, j); err != nil {
				return PairwiseReport{}, err
			}
			if err := q.AddLink(j, i); err != nil {
				return PairwiseReport{}, err
			}
			if evalOf(q, i).Better(evalOf(p, i), tol) && evalOf(q, j).Better(evalOf(p, j), tol) {
				rep.Stable = false
				rep.AddViolations = append(rep.AddViolations, [2]int{i, j})
			}
		}
	}
	return rep, nil
}
