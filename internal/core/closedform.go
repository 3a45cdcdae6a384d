package core

import (
	"fmt"
	"math"

	"selfishnet/internal/bitset"
)

// This file holds the paper's closed-form costs for the two headline
// topologies — the center-sponsored star and the chain (line) — and an
// exact certification mode that decides Nash stability from the closed
// forms in O(n) per peer, with a constructive witness when unstable.
// This is how equilibria are checked at n = 65536: no dense matrix, no
// per-deviation search — a complete case analysis of the deviation
// space, evaluated with arithmetic identical to the evaluator's.
//
// Domain. All formulas are for the uniform metric under the paper's
// stretch model (or the distance model at unit 1): overlay distances
// are hop counts, every per-pair term is a small exact integer, and
// every partial sum along the evaluator's fold stays an integer far
// below 2⁵³ — so the closed forms equal the evaluator's floats BIT FOR
// BIT, not merely within tolerance. The one float subtlety is the link
// part: the evaluator folds fl(α·deg_i) in peer order, which is not
// algebraically collapsible, so the closed-form social link REPLAYS
// that O(n) fold (the same convention as the hopDist replay table).
// The star's per-pair terms (hops 1 and 2) are exact under any unit u
// — u/u = 1 and (u+u)/u = 2 are exact in IEEE — while the chain needs
// unit 1, where hopDist[h] = h exactly. Certification analyzes the
// DIRECTED game (the paper's); the cost formulas also hold undirected
// (both constructions are symmetric), but the deviation analysis does
// not (an undirected star leaf could drop its link and still be
// reached, so the undirected game has different equilibria).

// Certification is the closed-form Nash verdict for a canonical
// topology, with a constructive witness when unstable. Witness and
// WitnessEval are set only when Stable is false; WitnessEval is
// computed with evaluator-identical arithmetic, so
// DeviationEvalStreamed on the witness reproduces it exactly.
type Certification struct {
	Topology string  // "star" or "chain"
	N        int     // peers
	Alpha    float64 // link price
	Stable   bool    // no peer improves by more than the tolerance
	Social   Cost    // closed-form social cost of the topology
	// BestGain is the largest closed-form deviation gain over all peers
	// and all deviation classes (≤ tolerance when Stable). For the
	// chain the scan early-exits at the first improving peer, so when
	// unstable it is that peer's best gain, not the global maximum.
	BestGain    float64
	Deviator    int      // improving peer, -1 when stable
	Witness     Strategy // its improving strategy
	WitnessEval Eval     // closed-form Eval of the witness deviation
}

// StarProfile returns the paper's center-sponsored star on n peers:
// peer 0 is the center linking every leaf, every leaf links the center.
// Centering at 0 keeps each leaf's strategy bitset one word long, so
// the profile costs O(n) memory at any n.
func StarProfile(n int) (Profile, error) {
	if n < 2 {
		return Profile{}, fmt.Errorf("core: star needs n ≥ 2, got %d", n)
	}
	p := NewProfile(n)
	center := bitset.New(n)
	for i := 1; i < n; i++ {
		center.Add(i)
	}
	if err := p.SetStrategy(0, center); err != nil {
		return Profile{}, err
	}
	for i := 1; i < n; i++ {
		s := bitset.New(1)
		s.Add(0)
		if err := p.SetStrategy(i, s); err != nil {
			return Profile{}, err
		}
	}
	return p, nil
}

// ChainProfile returns the chain (line) on n peers: peer i links its
// neighbors i−1 and i+1. Each strategy is built in place, higher
// neighbor first, so its set grows once to the words it keeps.
func ChainProfile(n int) (Profile, error) {
	if n < 2 {
		return Profile{}, fmt.Errorf("core: chain needs n ≥ 2, got %d", n)
	}
	p := NewProfile(n)
	for i := 0; i < n; i++ {
		s := &p.strategies[i]
		if i < n-1 {
			s.Add(i + 1)
		}
		if i > 0 {
			s.Add(i - 1)
		}
	}
	return p, nil
}

// StarPeerEval returns the closed-form Eval of peer i in the directed
// star (identical undirected): the center (i = 0) maintains n−1 links
// and reaches every leaf in 1 hop; a leaf maintains 1 link, reaches
// the center in 1 and every other leaf in 2, for a term of
// 1 + 2(n−2) = 2n−3.
func StarPeerEval(n int, alpha float64, i int) Eval {
	var deg, term int64
	if i == 0 {
		deg, term = int64(n-1), int64(n-1)
	} else {
		deg, term = 1, 2*int64(n)-3
	}
	t := float64(term)
	return Eval{Cost: Cost{Link: alpha * float64(deg), Term: t}, FiniteTerm: t}
}

// ChainPeerEval returns the closed-form Eval of peer i in the chain:
// deg ∈ {1, 2}, and with mL = i peers to the left and mR = n−1−i to
// the right, the term is Σ_{h=1}^{mL} h + Σ_{h=1}^{mR} h.
func ChainPeerEval(n int, alpha float64, i int) Eval {
	mL, mR := int64(i), int64(n-1-i)
	deg := 0
	if i > 0 {
		deg++
	}
	if i < n-1 {
		deg++
	}
	t := float64(mL*(mL+1)/2 + mR*(mR+1)/2)
	return Eval{Cost: Cost{Link: alpha * float64(deg), Term: t}, FiniteTerm: t}
}

// StarSocialCost returns the closed-form social cost of the star:
// Term = (n−1) + (n−1)(2n−3) = 2(n−1)², an exact integer, and Link
// replaying the evaluator's per-peer fold Σ fl(α·deg_i) in peer order.
func StarSocialCost(n int, alpha float64) Cost {
	link := alpha * float64(n-1)
	for i := 1; i < n; i++ {
		link += alpha // fl(α·1) == α exactly
	}
	t := 2 * int64(n-1) * int64(n-1)
	return Cost{Link: link, Term: float64(t)}
}

// ChainSocialCost returns the closed-form social cost of the chain:
// Term = Σ_i [mL(mL+1) + mR(mR+1)]/2 = (n³−n)/3, an exact integer
// (< 2⁵³ for every supported n), and the replayed link fold.
func ChainSocialCost(n int, alpha float64) Cost {
	link := alpha // peer 0, degree 1
	two := alpha * 2
	for i := 1; i < n-1; i++ {
		link += two
	}
	if n > 1 {
		link += alpha // peer n−1, degree 1
	}
	nn := int64(n)
	t := (nn*nn*nn - nn) / 3
	return Cost{Link: link, Term: float64(t)}
}

// CertifyStar decides Nash stability of the directed star in O(n) by
// complete case analysis of the deviation space:
//
//   - The center is unconditionally stable: leaves link only the
//     center, so the center reaches leaf j solely through its own arc
//     0→j — every proper subset of its strategy disconnects it, and no
//     deviation can reach more peers than the full set.
//   - A leaf's deviation is determined up to symmetry by whether it
//     keeps the center and how many extra leaves it links: keeping the
//     center with k extras costs fl(α(1+k)) + (2n−3−k); dropping it
//     with k ≥ 1 leaf links costs fl(αk) + (3n−4−2k) (center at 2
//     hops, non-linked leaves at 3). The empty strategy disconnects.
//
// Both families are scanned over every k with evaluator-identical
// arithmetic, so the verdict and the witness gain are exact, not
// approximate. tol is the improvement threshold (pass the oracle's
// tolerance, e.g. bestresponse.Tolerance).
func CertifyStar(n int, alpha float64, tol float64) (Certification, error) {
	cert, err := newCertification("star", n, alpha, tol, StarSocialCost(n, alpha))
	if err != nil {
		return Certification{}, err
	}
	if n == 2 {
		return cert, nil // two mutual links, no alternative is connected
	}
	cur := StarPeerEval(n, alpha, 1)
	bestK, bestWithCenter := 0, true
	for k := 0; k <= n-2; k++ { // keep the center, add k leaf links
		cand := starDeviationEval(n, alpha, k, true)
		if g := cur.Gain(cand); g > cert.BestGain {
			cert.BestGain, bestK, bestWithCenter = g, k, true
		}
	}
	for k := 1; k <= n-2; k++ { // drop the center, keep k leaf links
		cand := starDeviationEval(n, alpha, k, false)
		if g := cur.Gain(cand); g > cert.BestGain {
			cert.BestGain, bestK, bestWithCenter = g, k, false
		}
	}
	if cert.BestGain > tol {
		cert.Stable = false
		cert.Deviator = 1
		cert.Witness = starWitness(n, bestK, bestWithCenter)
		cert.WitnessEval = starDeviationEval(n, alpha, bestK, bestWithCenter)
	}
	return cert, nil
}

// starDeviationEval is the closed-form Eval of leaf 1 deviating to k
// extra leaf links, with or without the center.
func starDeviationEval(n int, alpha float64, k int, withCenter bool) Eval {
	if withCenter {
		t := float64(2*int64(n) - 3 - int64(k))
		return Eval{Cost: Cost{Link: alpha * float64(1+k), Term: t}, FiniteTerm: t}
	}
	t := float64(3*int64(n) - 4 - 2*int64(k))
	return Eval{Cost: Cost{Link: alpha * float64(k), Term: t}, FiniteTerm: t}
}

// starWitness builds leaf 1's deviating strategy: the center (when
// kept) plus the k lowest-numbered other leaves, 2..k+1.
func starWitness(n, k int, withCenter bool) Strategy {
	s := bitset.New(min(k+2, n))
	if withCenter {
		s.Add(0)
	}
	for j := 2; j <= k+1; j++ {
		s.Add(j)
	}
	return s
}

// CertifyChain decides Nash stability of the directed chain, scanning
// peers in order and early-exiting at the first improvement. A
// deviating peer i splits the chain into a left side of mL = i peers
// and a right side of mR = n−1−i: the sides only connect through i's
// own arcs, so each non-empty side needs at least one link, and with
// k links into a side the side's term is m + f(m,k), where f is the
// 1-D k-median cost of a path (balanced consecutive parts, facility at
// each part's median, Σ⌊t²/4⌋). Per peer, the (kL, kR) allocation is
// optimized greedily over the total link count — exact because the
// per-side marginal improvements are non-increasing (pinned by
// TestChainSideAllocationExhaustive) — giving an O(mL+mR) scan with
// evaluator-identical candidate Evals.
//
// The early exit keeps real runs O(n): for n ≥ 4 peer 0 always
// improves (re-pointing its single link from its neighbor to the far
// side's median strictly reduces the term at any α), and only the
// stable cases — n = 2 always, n = 3 iff α ≥ 1 — scan every peer.
func CertifyChain(n int, alpha float64, tol float64) (Certification, error) {
	cert, err := newCertification("chain", n, alpha, tol, ChainSocialCost(n, alpha))
	if err != nil {
		return Certification{}, err
	}
	if n == 2 {
		return cert, nil
	}
	for i := 0; i < n; i++ {
		cur := ChainPeerEval(n, alpha, i)
		cand, kL, kR := chainBestResponse(n, i, alpha)
		if g := cur.Gain(cand); g > cert.BestGain {
			cert.BestGain = g
			if g > tol {
				cert.Stable = false
				cert.Deviator = i
				cert.Witness = chainWitness(n, i, kL, kR)
				cert.WitnessEval = cand
				return cert, nil
			}
		}
	}
	return cert, nil
}

// newCertification validates the shared parameters and returns the
// stable-verdict skeleton.
func newCertification(topology string, n int, alpha, tol float64, social Cost) (Certification, error) {
	if n < 2 {
		return Certification{}, fmt.Errorf("core: certify %s needs n ≥ 2, got %d", topology, n)
	}
	if alpha < 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return Certification{}, fmt.Errorf("core: certify %s: invalid alpha %v", topology, alpha)
	}
	if tol < 0 || math.IsNaN(tol) {
		return Certification{}, fmt.Errorf("core: certify %s: invalid tolerance %v", topology, tol)
	}
	return Certification{
		Topology: topology,
		N:        n,
		Alpha:    alpha,
		Stable:   true,
		Social:   social,
		Deviator: -1,
	}, nil
}

// pathKMedian returns f(m, k): the minimal total distance from the m
// vertices of a unit path to the nearest of k facilities placed on it.
// Balanced consecutive parts are optimal (⌊t²/4⌋ is convex in the part
// size t), each part served by its median at cost ⌊t²/4⌋.
func pathKMedian(m, k int) int64 {
	if k >= m {
		return 0
	}
	q, r := m/k, m%k
	return int64(r)*medianCost(q+1) + int64(k-r)*medianCost(q)
}

// medianCost returns ⌊t²/4⌋, the summed distance of a t-vertex path
// segment to its median.
func medianCost(t int) int64 { return int64(t) * int64(t) / 4 }

// chainBestResponse returns peer i's exact best response in the chain:
// the closed-form Eval plus the per-side link counts achieving it. The
// greedy walk adds one link at a time to the side with the larger
// marginal k-median improvement, evaluating fl(α·t) + term at every
// total t; ties prefer the left side and the smallest t, so the result
// is deterministic.
func chainBestResponse(n, i int, alpha float64) (Eval, int, int) {
	mL, mR := i, n-1-i
	kL, kR := 0, 0
	if mL > 0 {
		kL = 1
	}
	if mR > 0 {
		kR = 1
	}
	fL, fR := pathKMedian(mL, max(kL, 1)), pathKMedian(mR, max(kR, 1))
	if mL == 0 {
		fL = 0
	}
	if mR == 0 {
		fR = 0
	}
	base := int64(mL) + int64(mR)
	mkEval := func(kL, kR int, fL, fR int64) Eval {
		t := float64(base + fL + fR)
		return Eval{Cost: Cost{Link: alpha * float64(kL+kR), Term: t}, FiniteTerm: t}
	}
	best := mkEval(kL, kR, fL, fR)
	bestKL, bestKR := kL, kR
	for kL < mL || kR < mR {
		var dL, dR int64 = -1, -1
		if kL < mL {
			dL = fL - pathKMedian(mL, kL+1)
		}
		if kR < mR {
			dR = fR - pathKMedian(mR, kR+1)
		}
		if dL >= dR {
			kL++
			fL = pathKMedian(mL, kL)
		} else {
			kR++
			fR = pathKMedian(mR, kR)
		}
		if cand := mkEval(kL, kR, fL, fR); cand.Key() < best.Key() {
			best, bestKL, bestKR = cand, kL, kR
		}
	}
	return best, bestKL, bestKR
}

// chainWitness builds peer i's deviating strategy with kL links into
// the left side and kR into the right: each side's positions 1..m
// (counted outward from i) are split into balanced consecutive parts —
// the r larger parts nearest i — with a link at each part's lower
// median.
func chainWitness(n, i, kL, kR int) Strategy {
	s := bitset.New(n)
	addSide := func(m, k, dir int) {
		if k == 0 {
			return
		}
		q, r := m/k, m%k
		pos := 1
		for part := 0; part < k; part++ {
			t := q
			if part < r {
				t++
			}
			median := pos + (t-1)/2
			s.Add(i + dir*median)
			pos += t
		}
	}
	addSide(i, kL, -1)
	addSide(n-1-i, kR, +1)
	return s
}
