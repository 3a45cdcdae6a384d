package core_test

// The closed-form oracle suite (external test package, so it can drive
// the nash checker without an import cycle): the evaluator's social and
// peer costs on constructed star and chain topologies must equal the
// paper's closed-form expressions EXACTLY — table-driven across α, n,
// directed/undirected, implicit/dense uniform storage and both built-in
// cost models — and the O(n) closed-form certification must agree with
// the exhaustive Nash oracle on every small instance, with bitwise-
// matching witnesses. This is the oracle the large-n certify mode
// (cmd/topogame certify) is tested against.

import (
	"math"
	"testing"

	"selfishnet/internal/bestresponse"
	"selfishnet/internal/core"
	"selfishnet/internal/metric"
	"selfishnet/internal/nash"
	"selfishnet/internal/opt"
)

// cfAlphas spans the paper's regimes: free links, the α < 1 clique
// regime, the α = 1 boundary, moderate and large prices.
func cfAlphas() []float64 { return []float64{0, 0.25, 0.5, 1, 1.01, 2.5, 3.7, 100} }

func cfNs() []int { return []int{2, 3, 4, 5, 9, 17, 33, 64, 65, 130} }

// cfSpace builds the uniform space: implicit O(1) storage or the dense
// matrix, optionally scaled.
func cfSpace(t *testing.T, n int, unit float64, implicit bool) metric.Space {
	t.Helper()
	if implicit {
		s, err := metric.UniformUnit(n, unit)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s, err := metric.Uniform(n)
	if err != nil {
		t.Fatal(err)
	}
	if unit == 1 {
		return s
	}
	scaled, err := metric.Scale(s, unit)
	if err != nil {
		t.Fatal(err)
	}
	return scaled
}

func cfProfile(t *testing.T, topology string, n int) core.Profile {
	t.Helper()
	var (
		p   core.Profile
		err error
	)
	switch topology {
	case "star":
		p, err = core.StarProfile(n)
	case "chain":
		p, err = core.ChainProfile(n)
	default:
		t.Fatalf("unknown topology %q", topology)
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestClosedFormSocialCost pins the evaluator's social cost — slab and
// banded — to the closed forms, exactly, across the full table.
func TestClosedFormSocialCost(t *testing.T) {
	for _, topology := range []string{"star", "chain"} {
		for _, undirected := range []bool{false, true} {
			for _, implicit := range []bool{false, true} {
				for _, n := range cfNs() {
					p := cfProfile(t, topology, n)
					space := cfSpace(t, n, 1, implicit)
					for _, alpha := range cfAlphas() {
						var opts []core.Option
						if undirected {
							opts = append(opts, core.WithUndirected())
						}
						inst, err := core.NewInstance(space, alpha, opts...)
						if err != nil {
							t.Fatal(err)
						}
						ev := core.NewEvaluator(inst)
						var want core.Cost
						if topology == "star" {
							want = core.StarSocialCost(n, alpha)
						} else {
							want = core.ChainSocialCost(n, alpha)
						}
						if got := ev.SocialCost(p); got != want {
							t.Fatalf("%s n=%d α=%v undirected=%v implicit=%v: SocialCost %+v, closed form %+v",
								topology, n, alpha, undirected, implicit, got, want)
						}
						banded, err := ev.SocialCostBanded(p, 64)
						if err != nil {
							t.Fatal(err)
						}
						if banded != want {
							t.Fatalf("%s n=%d α=%v: banded %+v, closed form %+v", topology, n, alpha, banded, want)
						}
					}
				}
			}
		}
	}
}

// TestClosedFormPeerEvals pins every peer's Eval to the closed forms,
// exactly, on both storage forms and both orientations.
func TestClosedFormPeerEvals(t *testing.T) {
	for _, topology := range []string{"star", "chain"} {
		for _, undirected := range []bool{false, true} {
			for _, n := range []int{2, 3, 5, 9, 33, 70} {
				p := cfProfile(t, topology, n)
				space := cfSpace(t, n, 1, true)
				for _, alpha := range cfAlphas() {
					var opts []core.Option
					if undirected {
						opts = append(opts, core.WithUndirected())
					}
					inst, err := core.NewInstance(space, alpha, opts...)
					if err != nil {
						t.Fatal(err)
					}
					ev := core.NewEvaluator(inst)
					for i := 0; i < n; i++ {
						var want core.Eval
						if topology == "star" {
							want = core.StarPeerEval(n, alpha, i)
						} else {
							want = core.ChainPeerEval(n, alpha, i)
						}
						if got := ev.PeerEval(p, i); got != want {
							t.Fatalf("%s n=%d α=%v undirected=%v peer %d: %+v, closed form %+v",
								topology, n, alpha, undirected, i, got, want)
						}
						if got := ev.PeerEvalStreamed(p, i); got != want {
							t.Fatalf("%s n=%d α=%v peer %d streamed: %+v, closed form %+v",
								topology, n, alpha, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestClosedFormStarAnyUnit pins the star closed forms under a
// non-integer unit: the star's per-pair stretches (hops 1 and 2) are
// exact under any unit, so equality stays bitwise.
func TestClosedFormStarAnyUnit(t *testing.T) {
	const unit = 0.37
	for _, implicit := range []bool{false, true} {
		for _, n := range []int{2, 5, 33} {
			p := cfProfile(t, "star", n)
			inst, err := core.NewInstance(cfSpace(t, n, unit, implicit), 2.5)
			if err != nil {
				t.Fatal(err)
			}
			ev := core.NewEvaluator(inst)
			if got, want := ev.SocialCost(p), core.StarSocialCost(n, 2.5); got != want {
				t.Fatalf("n=%d implicit=%v: SocialCost %+v, closed form %+v", n, implicit, got, want)
			}
		}
	}
}

// TestClosedFormDistanceModel pins the closed forms under the distance
// model at unit 1, where d_G = hops makes both models numerically
// identical.
func TestClosedFormDistanceModel(t *testing.T) {
	for _, topology := range []string{"star", "chain"} {
		for _, n := range []int{2, 5, 17, 70} {
			p := cfProfile(t, topology, n)
			inst, err := core.NewInstance(cfSpace(t, n, 1, true), 1.5, core.WithModel(core.DistanceModel))
			if err != nil {
				t.Fatal(err)
			}
			ev := core.NewEvaluator(inst)
			var want core.Cost
			if topology == "star" {
				want = core.StarSocialCost(n, 1.5)
			} else {
				want = core.ChainSocialCost(n, 1.5)
			}
			if got := ev.SocialCost(p); got != want {
				t.Fatalf("%s n=%d: SocialCost %+v, closed form %+v", topology, n, got, want)
			}
		}
	}
}

// TestClosedFormProfilesMatchOpt cross-checks the core profile
// constructors against the opt-package builders the experiments use.
func TestClosedFormProfilesMatchOpt(t *testing.T) {
	for _, n := range []int{2, 3, 9, 70} {
		star := cfProfile(t, "star", n)
		optStar, err := opt.Star(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		chain := cfProfile(t, "chain", n)
		optChain := opt.Chain(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if star.Strategy(i).Contains(j) != optStar.Strategy(i).Contains(j) {
					t.Fatalf("star n=%d: arc (%d,%d) mismatch vs opt.Star", n, i, j)
				}
				if chain.Strategy(i).Contains(j) != optChain.Strategy(i).Contains(j) {
					t.Fatalf("chain n=%d: arc (%d,%d) mismatch vs opt.Chain", n, i, j)
				}
			}
		}
	}
}

// TestCertifyMatchesNashOracle is the certification's ground truth:
// on every small directed instance, the O(n) closed-form verdict must
// equal the exhaustive oracle's — across the α regimes, including the
// α = 1 boundary on both sides.
func TestCertifyMatchesNashOracle(t *testing.T) {
	for _, topology := range []string{"star", "chain"} {
		for n := 2; n <= 9; n++ {
			p := cfProfile(t, topology, n)
			space := cfSpace(t, n, 1, true)
			for _, alpha := range []float64{0, 0.25, 0.5, 0.99, 1, 1.01, 2, 5, 100} {
				inst, err := core.NewInstance(space, alpha)
				if err != nil {
					t.Fatal(err)
				}
				ev := core.NewEvaluator(inst)
				var cert core.Certification
				if topology == "star" {
					cert, err = core.CertifyStar(n, alpha, bestresponse.Tolerance)
				} else {
					cert, err = core.CertifyChain(n, alpha, bestresponse.Tolerance)
				}
				if err != nil {
					t.Fatal(err)
				}
				stable, err := nash.IsNash(ev, p)
				if err != nil {
					t.Fatal(err)
				}
				if cert.Stable != stable {
					t.Fatalf("%s n=%d α=%v: certify stable=%v, oracle %v (best gain %v)",
						topology, n, alpha, cert.Stable, stable, cert.BestGain)
				}
				if got, want := cert.Social, core.NewEvaluator(inst).SocialCost(p); got != want {
					t.Fatalf("%s n=%d α=%v: certified social %+v, evaluator %+v", topology, n, alpha, got, want)
				}
			}
		}
	}
}

// TestCertifyWitnessBitwise replays every unstable verdict's witness
// through the real evaluator: DeviationEvalStreamed on the witness
// must reproduce WitnessEval bit for bit, and the implied gain must
// exceed the tolerance — the closed-form gain is the evaluator's gain,
// not an estimate of it.
func TestCertifyWitnessBitwise(t *testing.T) {
	for _, topology := range []string{"star", "chain"} {
		for _, n := range []int{3, 4, 7, 33, 130} {
			p := cfProfile(t, topology, n)
			space := cfSpace(t, n, 1, true)
			for _, alpha := range []float64{0, 0.5, 0.99, 1, 2, 50} {
				var (
					cert core.Certification
					err  error
				)
				if topology == "star" {
					cert, err = core.CertifyStar(n, alpha, bestresponse.Tolerance)
				} else {
					cert, err = core.CertifyChain(n, alpha, bestresponse.Tolerance)
				}
				if err != nil {
					t.Fatal(err)
				}
				if cert.Stable {
					continue
				}
				inst, err := core.NewInstance(space, alpha)
				if err != nil {
					t.Fatal(err)
				}
				ev := core.NewEvaluator(inst)
				got := ev.DeviationEvalStreamed(p, cert.Deviator, cert.Witness)
				if got != cert.WitnessEval {
					t.Fatalf("%s n=%d α=%v peer %d: evaluator %+v, certified witness %+v",
						topology, n, alpha, cert.Deviator, got, cert.WitnessEval)
				}
				cur := ev.PeerEvalStreamed(p, cert.Deviator)
				if gain := cur.Gain(got); gain != cert.BestGain || gain <= bestresponse.Tolerance {
					t.Fatalf("%s n=%d α=%v peer %d: evaluator gain %v, certified %v",
						topology, n, alpha, cert.Deviator, gain, cert.BestGain)
				}
			}
		}
	}
}

// TestCertifyKnownRegimes pins the paper-level facts the certification
// must reproduce: the directed star is Nash exactly for α ≥ 1 (n ≥ 3),
// the chain is never Nash for n ≥ 4, chain stability at n = 3 flips at
// α = 1, and n = 2 is always stable.
func TestCertifyKnownRegimes(t *testing.T) {
	for _, alpha := range cfAlphas() {
		for _, n := range []int{2, 3, 4, 9, 129, 4096} {
			star, err := core.CertifyStar(n, alpha, bestresponse.Tolerance)
			if err != nil {
				t.Fatal(err)
			}
			wantStar := n == 2 || alpha >= 1
			if star.Stable != wantStar {
				t.Errorf("star n=%d α=%v: stable=%v, want %v", n, alpha, star.Stable, wantStar)
			}
			chain, err := core.CertifyChain(n, alpha, bestresponse.Tolerance)
			if err != nil {
				t.Fatal(err)
			}
			wantChain := n == 2 || (n == 3 && alpha >= 1)
			if chain.Stable != wantChain {
				t.Errorf("chain n=%d α=%v: stable=%v, want %v", n, alpha, chain.Stable, wantChain)
			}
		}
	}
	if _, err := core.CertifyStar(1, 1, 0); err == nil {
		t.Error("CertifyStar(1): expected error")
	}
	if _, err := core.CertifyChain(4, math.NaN(), 0); err == nil {
		t.Error("CertifyChain(NaN): expected error")
	}
}
