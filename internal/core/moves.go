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
// either tied peer leaves the other's value. The row is then summed by
// betterEval, on the rule Eval and EvalActive sum by (peerEvalFrom's),
// so every move's Eval is bit-identical to Eval (or EvalActive) of the
// strategy it produces.

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
// drop must be in the base and add must not. It is MoveBetter against
// an Eval nothing is Better than, whose sum never stops early.
func (b *DeviationBatch) MoveEval(drop, add int) Eval {
	e, _ := b.MoveBetter(drop, add, Eval{Unreachable: math.MaxInt}, 0)
	return e
}

// MoveBetter scores the move (drop, add) and reports whether its Eval is
// Better than than by more than tol; when it does, the Eval ==
// MoveEval(drop, add). It folds the move's deviation row into the
// batch's scratch row and sums it by betterEval, over the base's mask;
// that sum stops once the move cannot be Better, and the Eval it then
// returns means nothing.
//
// The fold and the sum are two tight loops, not one fused loop: fused,
// the division sat at the end of a long chain behind every column's
// branch, and on bases that leave many columns unreachable, where that
// branch is unpredictable, the single loop ran slower than these two.
func (b *DeviationBatch) MoveBetter(drop, add int, than Eval, tol float64) (Eval, bool) {
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
	return b.ev.betterEval(d, b.i, degree, b.active, than, tol)
}
