// Package selfishnet is a library for studying the topologies formed by
// selfish peers, reproducing Moscibroda, Schmid and Wattenhofer, "On the
// Topologies Formed by Selfish Peers" (PODC 2006 / Dagstuhl 06131).
//
// # The game
//
// Peers are points in a metric space M = (V, d). Each peer i picks the
// set s_i of peers it maintains directed links to, paying
//
//	c_i(s) = α·|s_i| + Σ_{j≠i} stretch(i, j),
//	stretch(i, j) = d_G(i, j) / d(i, j),
//
// where d_G is the shortest-path distance through the overlay G[s]. The
// parameter α prices link maintenance against lookup latency. The social
// cost C(G) = α|E| + Σ stretch sums everyone's cost.
//
// # What the library provides
//
//   - metric spaces (Euclidean point sets, explicit matrices, the
//     paper's exponential line and five-cluster instances, generators);
//   - cost evaluation, exact and heuristic best-response oracles,
//     Nash-equilibrium verification and exhaustive equilibrium
//     enumeration for small instances;
//   - best-response dynamics with activation policies and proven cycle
//     detection (Theorem 5.1's non-convergence is observable);
//   - social-optimum machinery (construction portfolio, simulated
//     annealing, universal lower bounds) for Price-of-Anarchy ratios;
//   - the paper's constructions: the Figure 1 lower-bound family
//     (PoA = Θ(min(α, n))) and the Figure 2/3 instance I_k with no pure
//     Nash equilibrium;
//   - baseline games (Fabrikant et al. network creation, Corbo–Parkes
//     bilateral) on the same engine;
//   - a discrete-event overlay simulator (lookups, maintenance pings,
//     churn) grounding the game quantities in system metrics;
//   - the experiment harness regenerating every theorem/figure table
//     (see cmd/topogame and EXPERIMENTS.md), built on a declarative
//     scenario engine: JSON experiment specs and parameter sweeps over
//     α, n, seed, γ, churn rate, repair and sample count (topogame
//     spec/sweep).
//
// # Quick start
//
//	space, _ := selfishnet.Line([]float64{0, 1, 3, 7})
//	game, _ := selfishnet.NewGame(space, 2.0)
//	res, _ := selfishnet.RunDynamics(game, selfishnet.EmptyProfile(4), selfishnet.DynamicsConfig{})
//	fmt.Println(res.Converged, selfishnet.SocialCost(game, res.Final))
//
// The package functions above are one-shot conveniences; when issuing
// many operations against the same game, create a Session — it caches
// the evaluator's adjacency and heap buffers across calls:
//
//	s := selfishnet.NewSession(game)
//	res, _ := s.RunDynamics(selfishnet.EmptyProfile(4), selfishnet.DynamicsConfig{})
//	fmt.Println(s.IsNash(res.Final))
//
// See examples/ for complete programs.
package selfishnet

import (
	"selfishnet/internal/analysis"
	"selfishnet/internal/baseline"
	"selfishnet/internal/bestresponse"
	"selfishnet/internal/construct"
	"selfishnet/internal/core"
	"selfishnet/internal/dynamics"
	"selfishnet/internal/export"
	"selfishnet/internal/metric"
	"selfishnet/internal/nash"
	"selfishnet/internal/opt"
	"selfishnet/internal/overlay"
	"selfishnet/internal/rng"
)

// Core game types (aliases into the implementation packages; the facade
// is the supported import surface).
type (
	// Game is a topology game instance: metric space, α, cost model.
	Game = core.Instance
	// GameOption configures NewGame.
	GameOption = core.Option
	// Profile is a full strategy combination; G[s] is its topology.
	Profile = core.Profile
	// Strategy is one peer's set of directed links (a bitset).
	Strategy = core.Strategy
	// Cost is a decomposed cost: Link (α side) + Term (stretch side).
	Cost = core.Cost
	// Eval enriches Cost with reachability, ordering disconnected
	// strategies sensibly.
	Eval = core.Eval
	// Space is a finite metric space over peers.
	Space = metric.Space
	// Positioned is a Space with geometric coordinates.
	Positioned = metric.Positioned
	// Oracle computes best responses.
	Oracle = bestresponse.Oracle
	// DynamicsConfig parameterizes best-response dynamics.
	DynamicsConfig = dynamics.Config
	// DynamicsResult summarizes a dynamics run.
	DynamicsResult = dynamics.Result
	// NashReport is the outcome of an equilibrium check.
	NashReport = nash.Report
	// Table is a rendered experiment result.
	Table = export.Table
	// RNG is the deterministic random source used across the library.
	RNG = rng.RNG
)

// WithDistanceModel switches the game to the Fabrikant-style raw
// distance objective (default is the paper's stretch objective).
func WithDistanceModel() GameOption { return core.WithModel(core.DistanceModel) }

// WithUndirectedLinks makes links traversable both ways (Fabrikant
// semantics); the paper's game is directed.
func WithUndirectedLinks() GameOption { return core.WithUndirected() }

// WithCongestion enables the Section 6 future-work extension: the link
// u→v costs d(u,v)·(1+γ·indeg(v)), so heavily pointed-at peers slow
// down. γ = 0 recovers the paper's model.
func WithCongestion(gamma float64) GameOption { return core.WithCongestion(gamma) }

// NewGame creates a topology game over the space with parameter α ≥ 0.
func NewGame(space Space, alpha float64, opts ...GameOption) (*Game, error) {
	return core.NewInstance(space, alpha, opts...)
}

// NewRNG returns a deterministic random source for the given seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// Line builds a 1-D Euclidean space from positions.
func Line(positions []float64) (Positioned, error) { return metric.Line(positions) }

// Points builds a Euclidean space from coordinate rows.
func Points(coords [][]float64) (Positioned, error) { return metric.NewPoints(coords) }

// UniformPeers draws n uniform points in the dim-dimensional unit cube.
func UniformPeers(r *RNG, n, dim int) (Positioned, error) {
	return metric.UniformPoints(r, n, dim)
}

// EmptyProfile returns a profile with no links on n peers.
func EmptyProfile(n int) Profile { return core.NewProfile(n) }

// ProfileFromLinks builds a profile from adjacency lists.
func ProfileFromLinks(n int, links map[int][]int) (Profile, error) {
	return core.ProfileFromLinks(n, links)
}

// RandomProfile links each ordered pair independently with probability q.
func RandomProfile(r *RNG, n int, q float64) Profile {
	return dynamics.RandomProfile(r, n, q)
}

// PeerCost returns peer i's decomposed cost under profile p.
func PeerCost(g *Game, p Profile, i int) Cost {
	return NewSession(g).PeerCost(p, i)
}

// SocialCost returns the decomposed social cost C(G[p]).
func SocialCost(g *Game, p Profile) Cost {
	return NewSession(g).SocialCost(p)
}

// Pool fans all-pairs evaluations (social cost, max stretch,
// connectivity) out across per-goroutine evaluator clones; results are
// bit-identical to the sequential equivalents. Create one per game with
// NewPool and reuse it across profiles.
type Pool = core.Pool

// NewPool creates an evaluation pool of `workers` goroutines over the
// game (workers <= 0 selects GOMAXPROCS).
func NewPool(g *Game, workers int) *Pool { return core.NewPool(g, workers) }

// MaxStretch returns the largest pairwise stretch in the overlay (+Inf
// when some peer cannot reach another).
func MaxStretch(g *Game, p Profile) float64 {
	return NewSession(g).MaxStretch(p)
}

// IsNash reports whether p is an exact pure Nash equilibrium of g.
func IsNash(g *Game, p Profile) (bool, error) {
	return NewSession(g).IsNash(p)
}

// CheckNash reports every peer's best deviation under the exact oracle.
func CheckNash(g *Game, p Profile) (NashReport, error) {
	return NewSession(g).CheckNash(p)
}

// BestResponse returns peer i's exact best response to p.
func BestResponse(g *Game, p Profile, i int) (Strategy, Eval, error) {
	return NewSession(g).BestResponse(p, i)
}

// RunDynamics executes best-response dynamics from start (see
// DynamicsConfig for oracles, activation policies, cycle detection).
func RunDynamics(g *Game, start Profile, cfg DynamicsConfig) (DynamicsResult, error) {
	return NewSession(g).RunDynamics(start, cfg)
}

// EnumerateEquilibria exhaustively lists every pure Nash equilibrium of
// g (exponential; n ≤ 5). maxProfiles caps the search (0 = 2^22).
func EnumerateEquilibria(g *Game, maxProfiles int) ([]Profile, error) {
	return NewSession(g).EnumerateEquilibria(maxProfiles)
}

// PoABounds sandwiches the Price of Anarchy contribution of profile p:
// the ratio of C(G[p]) to an upper bound on OPT (portfolio + annealing)
// and to the universal lower bound αn + Σ lower-bound terms.
func PoABounds(g *Game, p Profile, r *RNG) (lower, upper float64, err error) {
	return NewSession(g).PoABounds(p, r)
}

// OptimumLowerBound returns the universal social-cost lower bound
// αn + Σ_{i≠j} term-lower-bounds (= αn + n(n-1) for the stretch model).
func OptimumLowerBound(g *Game) float64 { return opt.LowerBound(g) }

// Figure1 is the paper's lower-bound construction (re-exported).
type Figure1 = construct.Figure1

// NewFigure1 builds the Figure 1 instance and topology: a 1-D
// exponential line whose drawn link set is a Nash equilibrium for
// α ≥ 3.4 with social cost Θ(αn²) — the PoA = Θ(min(α,n)) witness.
func NewFigure1(n int, alpha float64) (*Figure1, error) {
	return construct.NewFigure1(n, alpha)
}

// IkInstance is the paper's Figure 2 five-cluster instance (re-export).
type IkInstance = construct.Ik

// NewIk builds the instance I_k (k peers per cluster, α = 0.947k with
// the shipped geometry) which has no pure Nash equilibrium.
func NewIk(k int) (*IkInstance, error) {
	return construct.NewIk(k, construct.DefaultIkParams())
}

// NewFabrikantGame builds the Fabrikant et al. (PODC 2003) hop-count
// network-creation game on n vertices.
func NewFabrikantGame(n int, alpha float64) (*Game, error) {
	return baseline.NewFabrikant(n, alpha)
}

// Overlay simulation (re-exports).
type (
	// OverlayConfig parameterizes the discrete-event overlay simulator.
	OverlayConfig = overlay.Config
	// OverlayMetrics aggregates simulation outcomes.
	OverlayMetrics = overlay.Metrics
)

// Repair strategies for the overlay simulator.
const (
	RepairNone    = overlay.RepairNone
	RepairSelfish = overlay.RepairSelfish
	RepairNearest = overlay.RepairNearest
)

// SimulateOverlay runs the discrete-event overlay simulation.
func SimulateOverlay(cfg OverlayConfig) (OverlayMetrics, error) {
	sim, err := overlay.New(cfg)
	if err != nil {
		return OverlayMetrics{}, err
	}
	return sim.Run()
}

// TopologyStats summarizes a topology's anatomy: degree and stretch
// distributions, load balance, per-peer cost shares.
type TopologyStats = analysis.TopologyStats

// AnalyzeTopology computes the structural summary of p over g.
func AnalyzeTopology(g *Game, p Profile) (TopologyStats, error) {
	return NewSession(g).AnalyzeTopology(p)
}

// Structured overlay constructions (re-exports).
var (
	// FullMesh links every ordered pair.
	FullMesh = opt.FullMesh
	// Chain links consecutive indices bidirectionally (the paper's G̃
	// on sorted lines).
	Chain = opt.Chain
	// Star links everyone with a center.
	Star = opt.Star
	// Tulip is the locality-aware O(√n)-degree overlay of footnote 2.
	Tulip = opt.Tulip
)
