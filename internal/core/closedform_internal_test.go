package core

// Internal property tests for the chain certification's k-median
// machinery: the balanced-parts closed form against an exhaustive
// partition DP, and the greedy per-side link allocation against brute
// force over every (kL, kR) split. These pin the two mathematical
// facts CertifyChain leans on — balanced consecutive parts are optimal
// and per-side marginal improvements are non-increasing — so the O(n)
// certification never silently degrades into a heuristic.

import (
	"runtime"
	"testing"

	"selfishnet/internal/metric"
)

// pathKMedianDP is the exhaustive reference for f(m, k): minimize
// Σ⌊t_j²/4⌋ over ALL consecutive partitions of a path of m vertices
// into k non-empty parts (nearest-facility service regions on a line
// are consecutive, and within a part the median is optimal).
func pathKMedianDP(m, k int) int64 {
	const inf = int64(1) << 62
	prev := make([]int64, m+1)
	cur := make([]int64, m+1)
	for j := 1; j <= m; j++ {
		prev[j] = medianCost(j)
	}
	for c := 2; c <= k; c++ {
		for j := 0; j <= m; j++ {
			cur[j] = inf
		}
		for j := c; j <= m; j++ {
			for t := 1; t <= j-c+1; t++ {
				if v := prev[j-t] + medianCost(t); v < cur[j] {
					cur[j] = v
				}
			}
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// TestPathKMedianMatchesExhaustiveDP pins the balanced-parts closed
// form against the partition DP for every (m, k) with m ≤ 18, and the
// non-increasing-marginals property (what makes the greedy allocation
// exact) out to m = 2048.
func TestPathKMedianMatchesExhaustiveDP(t *testing.T) {
	for m := 1; m <= 18; m++ {
		for k := 1; k <= m; k++ {
			if got, want := pathKMedian(m, k), pathKMedianDP(m, k); got != want {
				t.Errorf("f(%d,%d) = %d, DP %d", m, k, got, want)
			}
		}
	}
	for _, m := range []int{7, 64, 255, 1000, 2048} {
		prev := pathKMedian(m, 1) - pathKMedian(m, 2)
		for k := 2; k < m; k++ {
			d := pathKMedian(m, k) - pathKMedian(m, k+1)
			if d > prev {
				t.Fatalf("m=%d: marginal at k=%d (%d) exceeds k=%d (%d); greedy allocation unsound", m, k, d, k-1, prev)
			}
			prev = d
		}
	}
}

// TestChainSideAllocationExhaustive pins chainBestResponse against
// brute force over every (kL, kR) pair, for every peer of every small
// chain across the α regimes — the greedy walk must reach the exact
// optimum Key every time.
func TestChainSideAllocationExhaustive(t *testing.T) {
	for _, alpha := range []float64{0, 0.3, 1, 1.5, 2.5, 10, 1e6} {
		for n := 2; n <= 14; n++ {
			for i := 0; i < n; i++ {
				got, _, _ := chainBestResponse(n, i, alpha)
				mL, mR := i, n-1-i
				want := got // brute-force search below can only improve
				loL, hiL := 0, 0
				if mL > 0 {
					loL, hiL = 1, mL
				}
				loR, hiR := 0, 0
				if mR > 0 {
					loR, hiR = 1, mR
				}
				for kL := loL; kL <= hiL; kL++ {
					for kR := loR; kR <= hiR; kR++ {
						term := float64(int64(mL) + int64(mR) + pathKMedian(mL, max(kL, 1)) + pathKMedian(mR, max(kR, 1)))
						cand := Eval{Cost: Cost{Link: alpha * float64(kL+kR), Term: term}, FiniteTerm: term}
						if cand.Key() < want.Key() {
							want = cand
						}
					}
				}
				if got.Key() != want.Key() {
					t.Errorf("n=%d i=%d α=%v: greedy key %v, exhaustive %v", n, i, alpha, got.Key(), want.Key())
				}
			}
		}
	}
}

// TestChainWitnessAchievesClosedForm checks, for every peer of small
// chains, that the constructed witness strategy's evaluator cost
// equals the closed-form best-response Eval bit for bit — i.e. the
// balanced-median construction really achieves f, through the real
// SSSP machinery.
func TestChainWitnessAchievesClosedForm(t *testing.T) {
	for _, alpha := range []float64{0, 0.6, 1, 2.5, 40} {
		for n := 2; n <= 12; n++ {
			inst := mustUniformInstance(t, n)
			ev := NewEvaluator(inst)
			p, err := ChainProfile(n)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				want, kL, kR := chainBestResponse(n, i, alpha)
				w := chainWitness(n, i, kL, kR)
				got := ev.DeviationEvalStreamed(p, i, w)
				// The instance is built at α = 2.5; rescale the link part to
				// this α with the evaluator's own expression.
				got.Cost.Link = alpha * float64(w.Count())
				if got != want {
					t.Errorf("n=%d i=%d α=%v kL=%d kR=%d: witness eval %+v, closed form %+v", n, i, alpha, kL, kR, got, want)
				}
			}
		}
	}
}

// TestChainProfileBuiltInPlace pins ChainProfile against the chain
// built link by link, strategies and hash, across word boundaries, and
// bounds what the n = 8192 chain allocates: it keeps about 4.2 MiB of
// strategy words and must not allocate them twice.
func TestChainProfileBuiltInPlace(t *testing.T) {
	for _, n := range []int{2, 3, 64, 65, 129, 8192} {
		links := map[int][]int{}
		for i := 0; i < n; i++ {
			if i > 0 {
				links[i] = append(links[i], i-1)
			}
			if i < n-1 {
				links[i] = append(links[i], i+1)
			}
		}
		want, err := ProfileFromLinks(n, links)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ChainProfile(n)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || got.Hash() != want.Hash() {
			t.Fatalf("n=%d: ChainProfile differs from the link-by-link chain", n)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := ChainProfile(8192)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 6<<20 {
		t.Errorf("ChainProfile(8192) allocated %.2f MiB, want < 6 MiB", float64(alloc)/(1<<20))
	}
	runtime.KeepAlive(p)
}

// mustUniformInstance builds a directed implicit-uniform instance at
// α = 2.5 (the link part is rescaled by callers that vary α).
func mustUniformInstance(t *testing.T, n int) *Instance {
	t.Helper()
	s, err := metric.UniformImplicit(n)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(s, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}
