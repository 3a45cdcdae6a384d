package core

import "math"

// The move base: single-link moves scored in O(n).
//
// Local search and greedy score candidates that differ from one base
// strategy s by a single add, drop or swap. Folding each candidate from
// scratch costs O(|s|·n); the move base folds s once and keeps, for
// every column j,
//
//	best[j]   = min(fixed[j], min over k∈s of hop[k] + rest[k][j])
//	second[j] = the same min with one k that gives best[j] left out
//	arg[j]    = that k (−1 while fixed[j] gives best[j])
//
// so a move's deviation row is one O(n) pass: an add or swap takes the
// min of the base row and the new peer's row, and a drop or swap reads
// second[j] in the columns where the dropped peer gave the best. No
// drop matches arg −1: fixed's first hops cannot be dropped. The values
// are exact: min over a set of floats is order-free, and with
// non-negative hops and rest rows non-negative or +Inf no NaN can
// arise, so each column equals what fold computes for the explicit
// strategy. On a tie the equal value goes into second, so dropping
// either tied peer leaves the other's value. The row's terms are then
// summed in the usual j order by score, so every move's Eval is
// bit-identical to Eval (or EvalActive) of the strategy it produces.

// SetBase makes s the batch's move base and returns its Eval, summed
// over the partners j with active[j] (nil: every peer). Every later
// move score sums over the same mask. The base survives until the next
// SetBase, or the next batch built on the same evaluator; its columns
// live on the evaluator, so steady-state rebasing allocates nothing.
func (b *DeviationBatch) SetBase(s Strategy, active []bool) Eval {
	ev := b.ev
	n := len(b.d)
	if cap(ev.baseArg) < n {
		ev.baseBest = make([]float64, n)
		ev.baseSecond = make([]float64, n)
		ev.baseArg = make([]int32, n)
	}
	b.best, b.second, b.arg = ev.baseBest[:n], ev.baseSecond[:n], ev.baseArg[:n]
	copy(b.best, b.fixed)
	for j := range b.second {
		b.second[j] = math.Inf(1)
		b.arg[j] = -1
	}
	b.active = active
	b.degree = 0
	s.ForEach(func(k int) bool {
		b.AddToBase(k)
		return true
	})
	return b.MoveEval(-1, -1)
}

// AddToBase folds peer k's row into the move base in O(n): the base
// becomes base ∪ {k}. k must not be in the base.
func (b *DeviationBatch) AddToBase(k int) {
	b.degree++
	rk := b.rest[k]
	if rk == nil {
		return // k == i: a self-link never shortens a path
	}
	wk := b.hop[k]
	best, second, arg := b.best, b.second, b.arg
	k32 := int32(k)
	for j := range best {
		v := wk + rk[j]
		if v < best[j] {
			second[j] = best[j]
			best[j] = v
			arg[j] = k32
		} else if v < second[j] {
			second[j] = v
		}
	}
}

// MoveEval scores one move from the base, base \ {drop} ∪ {add} with
// −1 for no drop or no add: an add, a drop or a swap, in one O(n) pass.
// drop must be in the base and add must not.
func (b *DeviationBatch) MoveEval(drop, add int) Eval {
	e, _ := b.score(drop, add, math.NaN(), math.MaxInt)
	return e
}

// MoveBetter scores the move (drop, add) as MoveEval does and reports
// whether its Eval is Better than than by more than tol; when it does,
// the Eval == MoveEval(drop, add). Its sum stops early once the move
// cannot be Better, and the Eval it then returns means nothing: under
// the built-in models, as soon as more columns are unreachable than in
// than, and, against a connected than, as soon as Link plus the partial
// term sum reaches than.Key()−tol (the exact oracle's leaf device:
// partial sums of non-negative terms only grow).
func (b *DeviationBatch) MoveBetter(drop, add int, than Eval, tol float64) (Eval, bool) {
	threshold := math.NaN()
	if than.Unreachable == 0 && b.ev.builtinMonotoneModel() {
		threshold = than.Key() - tol
	}
	e, done := b.score(drop, add, threshold, than.Unreachable)
	return e, done && e.Better(than, tol)
}

// score is the move base's one scorer, behind MoveEval and MoveBetter.
// It folds the move's row into the batch's scratch row, then takes each
// column's term and sums the terms of the partners the base's mask
// counts, in j order, into one FiniteTerm accumulator and an
// unreachable count. Cost.Term is FiniteTerm, or +Inf when a column is
// unreachable: the bits peerEvalFromActive's two accumulators give.
// Under the built-in models it reports false, with a meaningless Eval,
// as soon as more than maxUnreachable columns are unreachable or Link
// plus the partial sum reaches threshold; a NaN threshold never
// compares true. Custom models sum the row through peerEvalFromActive.
//
// The fold and the sum are two tight loops, not one fused loop: fused,
// the division sat at the end of a long chain behind every column's
// branch, and on bases that leave many columns unreachable, where that
// branch is unpredictable, the single loop ran slower than these two.
func (b *DeviationBatch) score(drop, add int, threshold float64, maxUnreachable int) (Eval, bool) {
	inst := b.ev.inst
	degree := b.degree
	// With no add the loop folds second, which never undercuts the
	// column's value (best ≤ second), so every move takes one path.
	rk, wk := b.second, 0.0
	if add >= 0 {
		degree++
		if r := b.rest[add]; r != nil { // nil for add == i: a self-link never shortens a path
			rk, wk = r, b.hop[add]
		}
	}
	x := int32(-2) // matches no arg: nothing is dropped
	if drop >= 0 {
		degree--
		x = int32(drop)
	}
	d := b.d
	second, arg, rk := b.second[:len(d)], b.arg[:len(d)], rk[:len(d)]
	for j, v := range b.best[:len(d)] {
		if arg[j] == x {
			v = second[j]
		}
		d[j] = min(v, wk+rk[j])
	}
	if inst.modelKind == modelCustom {
		return b.ev.peerEvalFromActive(d, b.i, degree, b.active), true
	}
	row, active, i := inst.distRow(b.i)[:len(d)], b.active, b.i
	stretch := inst.modelKind == modelStretch
	e := Eval{Cost: Cost{Link: inst.alpha * float64(degree)}}
	for j, t := range d {
		if j == i || (active != nil && !active[j]) {
			continue
		}
		if stretch {
			t /= row[j]
		}
		if math.IsInf(t, 1) {
			e.Unreachable++
			if e.Unreachable > maxUnreachable {
				return Eval{}, false
			}
			continue
		}
		e.FiniteTerm += t
		if e.Cost.Link+e.FiniteTerm >= threshold {
			return Eval{}, false
		}
	}
	e.Cost.Term = e.FiniteTerm
	if e.Unreachable > 0 {
		e.Cost.Term = math.Inf(1)
	}
	return e, true
}
