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
// The cost model is pluggable so related network-creation games (notably
// Fabrikant et al., PODC 2003, whose distance term is d_G(i,j) itself)
// reuse the same evaluation, dynamics and equilibrium machinery.
//
// Evaluation is built around SSSP kernels that walk one per-profile arc
// list (graph.go: own links, plus the reverse traversals of undirected
// games), a batched deviation evaluator for best-response search
// (DeviationBatch), and a worker Pool that fans all-pairs evaluations
// across evaluator clones with bit-identical results.
package core

import "fmt"

// CostModel maps a pair's overlay distance and direct metric distance to
// the cost term the source peer pays for that pair.
type CostModel interface {
	// Term returns the per-pair cost given the overlay (routing)
	// distance dG and the direct metric distance dDirect > 0.
	// dG may be +Inf for unreachable pairs, in which case the term is
	// +Inf too. Term must be a pure function of its arguments: on
	// uniform metrics the streamed fold (SocialCostBanded, the sampled
	// estimators, the streamed evaluators) calls it once per hop count
	// when the instance is built and reuses that value for every pair.
	Term(dG, dDirect float64) float64
	// LowerBound returns the smallest possible value of Term for a pair
	// at direct distance dDirect (achieved by a direct link). Used by
	// exact best-response search to prune.
	LowerBound(dDirect float64) float64
	// Name identifies the model in tables and serialized output.
	Name() string
}

// StretchModel is the paper's cost model: Term = dG/dDirect ≥ 1.
type StretchModel struct{}

var _ CostModel = StretchModel{}

// Term returns dG / dDirect.
func (StretchModel) Term(dG, dDirect float64) float64 { return dG / dDirect }

// LowerBound returns 1: a direct link gives stretch exactly 1.
func (StretchModel) LowerBound(float64) float64 { return 1 }

// Name returns "stretch".
func (StretchModel) Name() string { return "stretch" }

// DistanceModel is the Fabrikant et al. network-creation cost: the peer
// pays the raw overlay distance Σ d_G(i,j) rather than the stretch. With
// a uniform metric this is the classic hop-count game.
type DistanceModel struct{}

var _ CostModel = DistanceModel{}

// Term returns dG.
func (DistanceModel) Term(dG, _ float64) float64 { return dG }

// LowerBound returns dDirect: overlay routes cannot beat the metric.
func (DistanceModel) LowerBound(dDirect float64) float64 { return dDirect }

// Name returns "distance".
func (DistanceModel) Name() string { return "distance" }

// ModelByName returns the cost model with the given Name.
func ModelByName(name string) (CostModel, error) {
	switch name {
	case StretchModel{}.Name():
		return StretchModel{}, nil
	case DistanceModel{}.Name():
		return DistanceModel{}, nil
	default:
		return nil, fmt.Errorf("core: unknown cost model %q", name)
	}
}
