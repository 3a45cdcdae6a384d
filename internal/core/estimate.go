package core

import (
	"fmt"
	"math"

	"selfishnet/internal/rng"
)

// This file holds the sampled estimators for general metrics at
// internet scale. On uniform metrics the banded store (msbfs.go) makes
// exact social cost affordable past n = 10⁴; on general metrics every
// SSSP source costs a heap Dijkstra, so the large-n answer is a
// source-sampled estimate with an honest confidence interval. Sources
// are drawn without replacement from a seeded generator, so every
// estimate is exactly reproducible: same profile, same seed, same
// bits. Per-source values are computed by the real kernels on the
// streamed path of the row loop (sampled sources feed msbfs chunks
// directly on uniform metrics), never by a shadow implementation.

// Estimate is a sampled statistic with a 95% normal-approximation
// confidence interval, finite-population corrected (the CI collapses
// to 0 as the sample approaches the population).
type Estimate struct {
	// Value is the point estimate: the estimated social cost total, or
	// the estimated mean per-pair term. +Inf when a sampled source was
	// disconnected (the underlying exact quantity is +Inf too).
	Value float64
	// CI is the 95% half-width (1.96·SE with finite-population
	// correction). 0 when Exact; +Inf when Value is.
	CI float64
	// Samples is the number of sources actually evaluated.
	Samples int
	// N is the population size (peers).
	N int
	// Exact reports full coverage: every source was sampled, so Value
	// is the population quantity up to summation order (the estimator
	// folds in sampled order, not peer order, so it is not bit-pinned
	// to SocialCost — use SocialCostBanded for that).
	Exact bool
	// Unreachable counts unreachable (source, target) pairs observed in
	// the sample.
	Unreachable int
}

// zCI is the two-sided 95% normal quantile used for CI half-widths.
const zCI = 1.96

// EstimateSocialCost estimates the social cost of p from a uniform
// sample of source peers drawn without replacement with the given
// seed: each sampled source's full per-peer cost is evaluated exactly
// (through the banded multi-source kernel on uniform metrics), and the
// population total is n/K times the sample sum. samples is clamped to
// n; samples ≥ n yields the exact total (Exact, CI 0).
func (ev *Evaluator) EstimateSocialCost(p Profile, samples int, seed uint64) (Estimate, error) {
	return ev.estimate(p, samples, seed, false)
}

// EstimateMeanTerm estimates the mean per-pair term (the mean stretch,
// under the paper's model) from sampled landmark sources: each
// landmark's mean term over its n−1 targets is one observation, and
// the estimate is the landmark average (cluster sampling, so the CI is
// over landmark means). Unreachable pairs are excluded from each
// landmark's mean and reported in Unreachable; a landmark reaching no
// one yields +Inf.
func (ev *Evaluator) EstimateMeanTerm(p Profile, landmarks int, seed uint64) (Estimate, error) {
	return ev.estimate(p, landmarks, seed, true)
}

// estimate is the shared sampling engine: meanTerm selects between the
// social-cost total (per-source value = Link + Term, scaled by n/K)
// and the landmark mean-term (per-source value = mean finite term,
// unscaled).
func (ev *Evaluator) estimate(p Profile, samples int, seed uint64, meanTerm bool) (Estimate, error) {
	n := ev.inst.N()
	if samples < 1 {
		return Estimate{}, fmt.Errorf("core: estimator needs ≥ 1 sample, got %d", samples)
	}
	if samples > n {
		samples = n
	}
	srcs := rng.New(seed).Perm(n)[:samples]
	est := Estimate{Samples: samples, N: n, Exact: samples == n}

	var sum, sumSq float64
	ev.sampledEvals(p, srcs, func(src int, e Eval) {
		est.Unreachable += e.Unreachable
		var x float64
		switch {
		case !meanTerm:
			x = e.Cost.Total() // +Inf if src is disconnected
		case e.Unreachable == n-1:
			x = math.Inf(1) // landmark reaches no one
		default:
			x = e.FiniteTerm / float64(n-1-e.Unreachable)
		}
		sum += x
		sumSq += x * x
	})

	k := float64(samples)
	mean := sum / k
	if math.IsInf(mean, 0) || math.IsNaN(mean) {
		est.Value = math.Inf(1)
		if !est.Exact { // at full coverage the value is exactly +Inf
			est.CI = math.Inf(1)
		}
		return est, nil
	}
	if meanTerm {
		est.Value = mean
	} else {
		est.Value = float64(n) * mean
	}
	if est.Exact {
		return est, nil
	}
	// Sample variance (Bessel) → standard error of the mean, with the
	// without-replacement finite-population correction √((N−K)/(N−1)).
	variance := (sumSq - k*mean*mean) / (k - 1)
	if variance < 0 {
		variance = 0 // float cancellation on near-constant samples
	}
	se := math.Sqrt(variance/k) * math.Sqrt(float64(n-samples)/float64(n-1))
	if !meanTerm {
		se *= float64(n)
	}
	est.CI = zCI * se
	return est, nil
}

// sampledEvals evaluates the Evals of the given source peers under p
// on the streamed path of settleEvals: on uniform metrics the
// multi-source BFS settles ≤64-source chunks and folds their Evals from
// its hop-level table, holding no distance row; otherwise the
// per-source kernel runs. Sources are visited in the given order; the
// slab is never materialized.
func (ev *Evaluator) sampledEvals(p Profile, srcs []int, visit func(src int, e Eval)) {
	list := ev.srcScratch[:0]
	for _, src := range srcs {
		list = append(list, int32(src))
	}
	ev.srcScratch = list
	ev.settleEvals(p, -1, Strategy{}, list, 64, func(src int32, e Eval) bool {
		visit(int(src), e)
		return true
	})
}
