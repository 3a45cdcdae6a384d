package core

import "math"

// The move base: single-link moves scored in O(n).
//
// Local search and greedy score candidates that differ from one base
// strategy s by a single add, drop or swap. Folding each candidate from
// scratch costs O(|s|·n); the move base folds s once and keeps, for
// every column j,
//
//	best[j]   = min over k∈s of d(i,k) + rest[k][j]
//	second[j] = the same min with one k that gives best[j] left out
//	arg[j]    = that k (−1 while best[j] is +Inf)
//
// so a move's deviation row is one O(n) pass: an add or swap takes the
// min of the base row and the new peer's row, and a drop or swap reads
// second[j] in the columns where the dropped peer gave the best. The
// values are exact: min over a set of floats is order-free, and with
// positive link weights and rest rows non-negative or +Inf no NaN can
// arise, so each column equals what fold computes for the explicit
// strategy. On a tie the equal value goes into second, so dropping
// either tied peer leaves the other's value. The row is then summed by
// peerEvalFromActive in its usual j order, so every move's Eval is
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
	for j := range b.best {
		b.best[j] = math.Inf(1)
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
	wk := b.ev.inst.distRow(b.i)[k]
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
	degree := b.degree
	var rk []float64
	var wk float64
	if add >= 0 {
		degree++
		rk, wk = b.rest[add], b.ev.inst.distRow(b.i)[add]
	}
	if drop >= 0 {
		degree--
	}
	d, best, second, arg := b.d, b.best, b.second, b.arg
	x := int32(drop)
	switch {
	case rk == nil && drop < 0:
		copy(d, best)
	case rk == nil:
		for j := range d {
			if arg[j] == x {
				d[j] = second[j]
			} else {
				d[j] = best[j]
			}
		}
	case drop < 0:
		for j := range d {
			v := wk + rk[j]
			if best[j] < v {
				v = best[j]
			}
			d[j] = v
		}
	default:
		for j := range d {
			u := best[j]
			if arg[j] == x {
				u = second[j]
			}
			v := wk + rk[j]
			if u < v {
				v = u
			}
			d[j] = v
		}
	}
	d[b.i] = 0
	return b.ev.peerEvalFromActive(d, b.i, degree, b.active)
}
