package bestresponse

import (
	"selfishnet/internal/bitset"
	"selfishnet/internal/core"
)

// MoveScorer scores one peer's single-link moves — an add, a drop or a
// swap — away from a base strategy, the strategy HillClimb and Greedy
// stand on. It has two sources:
//
//   - BatchMoves: a DeviationBatch's move base, which scores each move
//     in O(n) and stops the sum once the move cannot be Better
//     (core.DeviationBatch.MoveBetter);
//   - ScoredMoves: an adapter that edits the strategy and scores it
//     whole, where no batch exists (γ>0, n>2048).
//
// Either way a move's score is bit-identical to the source's score of
// the explicit strategy the move produces, so the climbs take the same
// steps on both. A scorer serves one climb at a time and, like the
// evaluator behind it, is not safe for concurrent use.
type MoveScorer struct {
	batch  *core.DeviationBatch
	active []bool
	score  func(core.Strategy) core.Eval
	cur    core.Strategy
}

// BatchMoves scores moves on b's move base, summing each Eval over the
// partners j with active[j] (nil: every peer), as b.EvalActive does.
func BatchMoves(b *core.DeviationBatch, active []bool) *MoveScorer {
	return &MoveScorer{batch: b, active: active}
}

// ScoredMoves scores each move by calling score on the strategy it
// produces.
func ScoredMoves(score func(core.Strategy) core.Eval) *MoveScorer {
	return &MoveScorer{score: score}
}

// movesFor returns the move scorer for peer i under p: the batch's move
// base when the instance admits a batch, DeviationEval otherwise.
func movesFor(ev *core.Evaluator, p core.Profile, i int) *MoveScorer {
	if b := ev.NewDeviationBatch(p, i); b != nil {
		return BatchMoves(b, nil)
	}
	return ScoredMoves(func(s core.Strategy) core.Eval { return ev.DeviationEval(p, i, s) })
}

// reset makes a copy of s, sized for n peers, the base and returns its
// score.
func (m *MoveScorer) reset(n int, s core.Strategy) core.Eval {
	m.cur = bitset.New(n)
	s.ForEach(func(k int) bool {
		m.cur.Add(k)
		return true
	})
	if m.batch != nil {
		return m.batch.SetBase(m.cur, m.active)
	}
	return m.score(m.cur)
}

// eval scores an arbitrary strategy s, leaving the base alone.
func (m *MoveScorer) eval(s core.Strategy) core.Eval {
	if m.batch != nil {
		return m.batch.EvalActive(s, m.active)
	}
	return m.score(s)
}

// better scores base \ {j} ∪ {k}, with −1 for no drop or no add, and
// reports whether it is Better than than; the Eval is its score when it
// is. j must be in the base and k not.
func (m *MoveScorer) better(j, k int, than core.Eval) (core.Eval, bool) {
	if m.batch != nil {
		return m.batch.MoveBetter(j, k, than, Tolerance)
	}
	m.cur.Remove(j) // a negative index is a no-op
	m.cur.Add(k)
	e := m.score(m.cur)
	m.cur.Remove(k)
	m.cur.Add(j)
	return e, e.Better(than, Tolerance)
}

// accept applies the move (j, k) to the base. On the batch an add folds
// one row in O(n); a drop or swap re-folds the base once.
func (m *MoveScorer) accept(j, k int) {
	m.cur.Remove(j)
	m.cur.Add(k)
	switch {
	case m.batch == nil:
	case j < 0:
		m.batch.AddToBase(k)
	default:
		m.batch.SetBase(m.cur, m.active)
	}
}
