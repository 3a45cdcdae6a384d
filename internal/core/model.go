// Package core implements the topology game of Moscibroda, Schmid and
// Wattenhofer ("On the Topologies Formed by Selfish Peers"): peers are
// points in a metric space, each peer unilaterally chooses a set of
// directed links, and pays
//
//	c_i(s) = α·|s_i| + Σ_{j≠i} stretch_{G[s]}(i, j)
//
// where stretch(i,j) = d_G(i,j)/d(i,j) is the ratio of overlay routing
// distance to the direct metric distance. The social cost is the sum of
// all peer costs: C(G) = α|E| + Σ stretch.
//
// The cost model has two values: the paper's stretch and the raw
// overlay distance of Fabrikant et al.'s network creation game (PODC
// 2003), which the comparison experiments run on the same evaluation,
// dynamics and equilibrium machinery.
//
// Evaluation is built around SSSP kernels that walk one per-profile arc
// list (graph.go: own links, plus the reverse traversals of undirected
// games), a batched deviation evaluator for best-response search
// (DeviationBatch), and a worker Pool that fans all-pairs evaluations
// across evaluator clones with bit-identical results.
package core

import "fmt"

// CostModel maps a pair's overlay distance and direct metric distance to
// the cost term the source peer pays for that pair. It has exactly two
// values, StretchModel (the zero value, NewInstance's default) and
// DistanceModel; NewInstance rejects any other. Under both, Term lies in
// [0, +Inf], is non-decreasing in the overlay distance, is +Inf for an
// unreachable pair and equals LowerBound at a direct link (Term(d, d)).
// That is what lets the evaluator sum terms in one accumulator, stop a
// losing sum early and prune the exact search by suffix minima.
type CostModel uint8

const (
	// StretchModel is the paper's cost model: Term = dG/dDirect ≥ 1.
	StretchModel CostModel = iota
	// DistanceModel is the Fabrikant et al. network-creation cost: the
	// peer pays the raw overlay distance Σ d_G(i,j) rather than the
	// stretch. With a uniform metric this is the classic hop-count game.
	DistanceModel
)

// Term returns the per-pair cost given the overlay (routing) distance dG
// and the direct metric distance dDirect > 0: dG/dDirect under
// StretchModel, dG under DistanceModel. dG may be +Inf for an
// unreachable pair, and then the term is +Inf too.
func (m CostModel) Term(dG, dDirect float64) float64 {
	if m == DistanceModel {
		return dG
	}
	return dG / dDirect
}

// LowerBound returns the smallest possible value of Term for a pair at
// direct distance dDirect, achieved by a direct link: 1 under
// StretchModel, dDirect under DistanceModel (overlay routes cannot beat
// the metric). Used by exact best-response search to prune.
func (m CostModel) LowerBound(dDirect float64) float64 {
	if m == DistanceModel {
		return dDirect
	}
	return 1
}

// Name identifies the model in tables and serialized output: "stretch"
// or "distance".
func (m CostModel) Name() string {
	if m == DistanceModel {
		return "distance"
	}
	return "stretch"
}

// ModelByName returns the cost model with the given Name.
func ModelByName(name string) (CostModel, error) {
	switch name {
	case StretchModel.Name():
		return StretchModel, nil
	case DistanceModel.Name():
		return DistanceModel, nil
	}
	return StretchModel, fmt.Errorf("core: unknown cost model %q", name)
}
