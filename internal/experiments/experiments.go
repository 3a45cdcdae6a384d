// Package experiments implements the reproduction harness: one runner
// per paper item (theorem, lemma, figure), each returning a typed table
// with the same rows/series the paper's claims predict.
//
// Every runner is deterministic given its scenario.Params (explicit
// seeds, no wall-clock), so tables regenerate bit-identically. That
// determinism is what lets the engine execute runners concurrently while
// guaranteeing the exported tables match a sequential run byte for byte.
//
// Importing the package registers the 13 runners as native entries in
// the internal/scenario catalog; the scenario engine runs them
// (scenario.Run, scenario.RunAll, or a Spec with "experiment": "<id>").
package experiments

import "selfishnet/internal/scenario"

// init registers the 13 paper runners in the scenario catalog, the
// registry of record.
func init() {
	for _, e := range []struct {
		id     string
		runner scenario.Native
		desc   string
	}{
		{"e1-upper", E1Upper, "Theorem 4.1: max stretch ≤ α+1 in Nash equilibria; PoA within O(min(α,n))"},
		{"e2-fig1", E2Figure1, "Figure 1 + Lemma 4.2: the lower-bound topology is Nash for α ≥ 3.4"},
		{"e3-cost", E3CostScaling, "Lemma 4.3: C_S(G) ∈ Θ(αn²), C_E(G) ∈ Θ(αn) growth-exponent fits"},
		{"e4-poa", E4PriceOfAnarchy, "Theorem 4.4: Price of Anarchy of the Figure 1 family is Θ(min(α,n))"},
		{"e5-nonash", E5NoNash, "Theorem 5.1: I_k has no pure Nash equilibrium; dynamics never stabilize"},
		{"e6-cycle", E6CandidateCycle, "Figure 3: the six candidates and the best-response cycle 1→3→4→2→1"},
		{"e7-tulip", E7SqrtRegime, "Footnote 2: α = Θ(√n) regime, locality-aware O(√n)-degree overlays"},
		{"e8-dyn", E8Convergence, "Section 5 context: convergence of BR dynamics on random metrics"},
		{"e9-churn", E9Churn, "Extension: overlay simulation under churn, selfish vs structured repair"},
		{"e10-baseline", E10Baselines, "Related work: same peers under stretch, Fabrikant and bilateral games"},
		{"e11-exact", E11Landscape, "Extension: exact equilibrium landscape (PoS and PoA) on tiny instances"},
		{"e12-oracle", E12Oracles, "Ablation: heuristic oracles vs the exact best response; pruning effectiveness"},
		{"e13-congest", E13Congestion, "Extension (§6): congestion-aware links — equilibria avoid hubs as γ grows"},
	} {
		scenario.RegisterNative(e.id, e.desc, e.runner)
	}
}
