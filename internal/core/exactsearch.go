package core

import "selfishnet/internal/bitset"

// ExactSearchOutcome is the result of DeviationBatch.ExactSearch.
type ExactSearchOutcome struct {
	// Strategy and Eval are the global best response found (the
	// incumbent when nothing beats it by more than tol).
	Strategy Strategy
	Eval     Eval
	// Resolved counts candidate strategies settled: scored directly or
	// eliminated in bulk by the subtree lower bound. It equals what an
	// unpruned cardinality enumeration would score one by one.
	Resolved int
	// OverBudget is true when the search hit its evaluation budget; the
	// other fields are then meaningless.
	OverBudget bool
}

// ExactSearch finds the batch peer's globally optimal strategy by
// enumerating candidate link sets in increasing cardinality, in one
// fused kernel (the exact oracle's hot path):
//
//   - The backtracking tree shares fold prefixes: per-depth distance
//     levels are pointwise mins, so visiting a node costs O(n), not
//     O(depth·n); leaves fold their last link and accumulate the eval
//     in a single bounded pass.
//   - Per-depth term levels and a suffix-min term table (the model term
//     is monotone and commutes exactly with min in floating point)
//     yield a division-free lower bound on every completion of a node:
//     when it cannot beat the incumbent by more than tol, the node's
//     subtree and all of its later siblings die in one check, and their
//     leaves are counted in bulk (the hockey-stick identity).
//   - Candidate evals abandon early: partial Link ⊕ term sums are
//     monotone lower bounds on the final key, and an unreachable pair
//     folds +Inf into the sum, so losers exit without a full scan.
//
// All three devices are floating-point-exact, so the outcome — and the
// Resolved count, with bulk-pruned candidates counted as resolved — is
// bit-identical to the unpruned enumeration. The classic cardinality
// bound α·k + sumLB (per-pair model lower bounds, supplied by the
// caller) terminates the cardinality loop exactly as it always has.
//
// A non-nil active mask restricts the search to an active peer subset:
// candidates are drawn from active peers only and every Eval — the
// incumbent's, the leaves' and the pruning bounds' — is masked to
// active partners (see active.go for the masking conventions), and
// sumLB must sum the model lower bounds over active partners only;
// nil means every peer. This is the churn engine's repair oracle: a
// best response in the subgame induced on the online peers, with every
// pruning device still live because masked connectivity (reaching all
// active peers) replaces global connectivity.
//
// budget > 0 bounds Resolved; crossing it aborts with OverBudget at the
// same candidate the unpruned enumeration would have died on.
func (b *DeviationBatch) ExactSearch(incumbent Strategy, active []bool, sumLB, tol float64, budget int) ExactSearchOutcome {
	ev := b.ev
	inst := ev.inst
	n := inst.n
	s := exactSearch{
		b:       b,
		n:       n,
		i:       b.i,
		alpha:   inst.alpha,
		hop:     b.hop,
		row:     inst.distRow(b.i),
		stretch: inst.model == StretchModel,
		tol:     tol,
		budget:  budget,
	}

	if cap(ev.candScratch) < n {
		ev.candScratch = make([]int, 0, n)
		ev.countScratch = make([]bool, n)
	}
	s.candidates, s.counted = ev.candScratch[:0], ev.countScratch[:n]
	for j := range s.counted {
		s.counted[j] = j != s.i && (active == nil || active[j])
		if s.counted[j] {
			s.candidates = append(s.candidates, j)
		}
	}
	ev.candScratch = s.candidates
	m := len(s.candidates)
	s.m = m

	if cap(ev.stackLevels) < (m+1)*n {
		ev.stackLevels = make([]float64, (m+1)*n)
		ev.stackTerms = make([]float64, (m+1)*n)
	}
	s.levels = ev.stackLevels[:(m+1)*n]
	base := s.levels[:n]
	copy(base, b.fixed) // the empty strategy's distances
	s.terms = ev.stackTerms[:(m+1)*n]
	tbase := s.terms[:n]
	for j, f := range base {
		if s.stretch && j != s.i {
			f /= s.row[j]
		}
		tbase[j] = f
	}

	s.setBest(incumbent.Clone(), b.EvalActive(incumbent, active))

	if sb := b.suffixMins(s.candidates, s.counted); sb != nil {
		s.suffix = sb.term
		s.suffixSum = sb.sum
		s.single = sb.single
	}
	// The full strategy (link to everyone) is the first candidate, which
	// any budget admits, and it reaches every counted partner at a finite
	// term. So from here on the incumbent is connected: every later one
	// is Better than a connected Eval, so connected too.
	s.resolved = 1
	full := bitset.FromSlice(s.candidates)
	if e := b.EvalActive(full, active); e.Better(s.bestEval, tol) {
		s.setBest(full, e)
	}

	s.cur = bitset.New(n)
	for k := 0; k <= m; k++ {
		// Cardinality pruning: the cheapest conceivable strategy with k
		// links costs α·k + sumLB. Once that can no longer beat the
		// (connected) incumbent, larger k is hopeless too (α > 0).
		if s.alpha > 0 && s.alpha*float64(k)+sumLB >= s.bestEval.Key()-tol {
			break
		}
		if k == m {
			continue // already scored the full strategy
		}
		s.kTotal = k
		if k == 0 {
			// The empty strategy is the lone leaf at cardinality 0.
			if !s.spend(1) {
				return ExactSearchOutcome{Resolved: s.resolved, OverBudget: true}
			}
			if e, ok := ev.betterEval(base, s.i, 0, active, s.bestEval, tol); ok {
				s.setBest(s.cur.Clone(), e)
			}
			continue
		}
		if k == 1 && s.single != nil {
			// Cardinality 1: the suffix build already produced every
			// single-link eval (bit-identical to peerEvalFrom of its
			// fold); compare them in candidate order, scan-free.
			link := s.alpha
			overBudget := false
			for ci := 0; ci < m; ci++ {
				if !s.spend(1) {
					overBudget = true
					break
				}
				e := s.single[ci]
				e.Cost.Link = link
				if e.Better(s.bestEval, tol) {
					one := bitset.New(n)
					one.Add(s.candidates[ci])
					s.setBest(one, e)
				}
			}
			if overBudget {
				return ExactSearchOutcome{Resolved: s.resolved, OverBudget: true}
			}
			continue
		}
		if !s.rec(0, k, 0) {
			return ExactSearchOutcome{Resolved: s.resolved, OverBudget: true}
		}
	}
	return ExactSearchOutcome{Strategy: s.bestStrategy, Eval: s.bestEval, Resolved: s.resolved}
}

// exactSearch is the mutable state of one ExactSearch run. All slices
// are evaluator-owned scratch.
type exactSearch struct {
	b          *DeviationBatch
	n, i, m    int
	alpha      float64
	hop        []float64 // first-hop weights (the batch's hop row)
	row        []float64 // direct distances, the stretch denominators
	stretch    bool
	tol        float64
	budget     int
	candidates []int
	counted    []bool      // the partners summed: j ≠ i and active
	levels     []float64   // per-depth distance folds
	terms      []float64   // per-depth term folds
	suffix     [][]float64 // suffix-min term rows (nil when unavailable)
	suffixSum  []float64   // Eval-ordered sums of the suffix rows
	single     []Eval      // single-link evals (Link left zero)
	cur        Strategy
	kTotal     int

	bestStrategy Strategy
	bestEval     Eval
	threshold    float64 // bestEval.Key() − tol, the Better margin

	resolved int
}

func (s *exactSearch) setBest(strat Strategy, e Eval) {
	s.bestStrategy = strat
	s.bestEval = e
	s.threshold = e.Key() - s.tol
}

// spend resolves c candidates; false aborts the search at the same
// point the unpruned enumeration would exhaust its budget.
func (s *exactSearch) spend(c int) bool {
	s.resolved = satAddInt(s.resolved, c)
	return s.budget <= 0 || s.resolved <= s.budget
}

// prunable reports whether no completion of level `depth` to
// cardinality kTotal using links from candidates[start:] can beat the
// incumbent, connected by then, by more than tol (see ExactSearch).
func (s *exactSearch) prunable(start, depth int) bool {
	link := s.alpha * float64(s.kTotal)
	threshold := s.threshold
	if link >= threshold {
		return true
	}
	if link+s.suffixSum[start] < threshold {
		// Necessary condition: the bound partial is pointwise at most
		// the suffix terms, so it cannot reach the threshold either.
		return false
	}
	n := s.n
	tcur := s.terms[depth*n : (depth+1)*n]
	tsuf, counted := s.suffix[start][:len(tcur)], s.counted[:len(tcur)]
	partial := 0.0
	for j, t := range tcur {
		// Inactive partners carry +Inf term rows, so folding them would
		// prune everything; they are simply not part of the sum.
		if !counted[j] {
			continue
		}
		partial += min(t, tsuf[j])
		if link+partial >= threshold {
			return true
		}
	}
	return false
}

// push folds candidate link k into level depth+1.
func (s *exactSearch) push(k, depth int) {
	n := s.n
	cur := s.levels[depth*n : (depth+1)*n]
	next := s.levels[(depth+1)*n : (depth+2)*n]
	rk := s.b.rest[k]
	wk := s.hop[k]
	for j := 0; j < n; j++ {
		next[j] = min(cur[j], wk+rk[j])
	}
	tcur := s.terms[depth*n : (depth+1)*n]
	tnext := s.terms[(depth+1)*n : (depth+2)*n]
	if s.stretch {
		row := s.row
		for j := 0; j < n; j++ {
			tnext[j] = min(tcur[j], (wk+rk[j])/row[j])
		}
	} else {
		copy(tnext, next)
	}
}

// leaf scores level depth plus one final link to candidate k, updating
// best on a strict win. The incumbent is connected by then (see
// ExactSearch), so the last fold and the bounded sum run fused in one
// pass: this loop sums the row itself rather than through betterEval,
// because split into a fold plus a bounded sum, the exact oracle's
// hottest loop would write every leaf's row out in full and read it
// back, where the fused loop stops at the first column that rules the
// leaf out. Its arithmetic is betterEval's against a connected Eval: a
// survivor's Eval is bit-identical to peerEvalFrom of the full fold,
// and an early exit means precisely "not Better than best".
func (s *exactSearch) leaf(k, depth int) {
	n := s.n
	cur := s.levels[depth*n : (depth+1)*n]
	rk, row, counted := s.b.rest[k][:len(cur)], s.row[:len(cur)], s.counted[:len(cur)]
	wk, stretch := s.hop[k], s.stretch
	e := Eval{Cost: Cost{Link: s.alpha * float64(depth+1)}}
	threshold := s.threshold
	for j, v := range cur {
		if !counted[j] {
			continue
		}
		t := min(v, wk+rk[j])
		if stretch {
			t /= row[j]
		}
		// +Inf terms trip the threshold exit, so unreachable pairs need
		// no separate check, and a survivor's Term is its FiniteTerm.
		e.FiniteTerm += t
		if e.Cost.Link+e.FiniteTerm >= threshold {
			return
		}
	}
	e.Cost.Term = e.FiniteTerm
	if e.Better(s.bestEval, s.tol) {
		s.cur.Add(k)
		s.setBest(s.cur.Clone(), e)
		s.cur.Remove(k)
	}
}

// rec enumerates completions of level `depth` choosing `remaining` more
// links from candidates[start:], in lexicographic order. Returns false
// to abort (budget).
func (s *exactSearch) rec(start, remaining, depth int) bool {
	for ci := start; ci <= s.m-remaining; ci++ {
		if s.suffix != nil && s.prunable(ci, depth) {
			// The bound covers every completion drawing links from
			// candidates[ci:]: this child's subtree and all later
			// siblings' resolve in bulk (Σ_{c≥ci} C(m−c−1, r−1) =
			// C(m−ci, r), the hockey-stick identity).
			return s.spend(binomialInt(s.m-ci, remaining))
		}
		cand := s.candidates[ci]
		if remaining == 1 {
			if !s.spend(1) {
				return false
			}
			s.leaf(cand, depth)
			continue
		}
		s.push(cand, depth)
		s.cur.Add(cand)
		ok := s.rec(ci+1, remaining-1, depth+1)
		s.cur.Remove(cand)
		if !ok {
			return false
		}
	}
	return true
}

// satAddInt adds non-negative counters with saturation, so bulk
// binomials can never wrap the resolved counter.
func satAddInt(a, b int) int {
	if sum := a + b; sum >= a {
		return sum
	}
	return int(^uint(0) >> 1)
}

// binomTableMaxInt bounds the precomputed Pascal triangle; larger
// arguments fall back to the iterative form.
const binomTableMaxInt = 64

var binomTableInt = func() [][]int {
	t := make([][]int, binomTableMaxInt+1)
	for a := 0; a <= binomTableMaxInt; a++ {
		t[a] = make([]int, a+2)
		t[a][0] = 1
		for b := 1; b <= a; b++ {
			var prev int
			if b <= a-1 {
				prev = t[a-1][b]
			}
			t[a][b] = satAddInt(t[a-1][b-1], prev)
		}
	}
	return t
}()

// binomialInt returns C(a, b) saturated at MaxInt. Up to a = 64 it reads
// the Pascal table, exact to MaxInt. Past that (churn's budgeted search
// at n > 65) the iterative form saturates early, returning MaxInt once
// an intermediate product could pass MaxInt/2: every value below
// C(65, 23) ≈ 2.27e17, where that first happens, is exact, and for each
// a, once some b ≤ a/2 saturates every larger b up to a/2 does too.
func binomialInt(a, b int) int {
	if b < 0 || b > a {
		return 0
	}
	if a <= binomTableMaxInt {
		return binomTableInt[a][b]
	}
	if b > a-b {
		b = a - b
	}
	const lim = int(^uint(0)>>1) / 2
	r := 1
	for j := 1; j <= b; j++ {
		if r > lim/a {
			return int(^uint(0) >> 1)
		}
		r = r * (a - b + j) / j
	}
	return r
}
