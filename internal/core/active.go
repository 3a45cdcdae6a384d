package core

import "math"

// Active-subset (masked) evaluation. A churning overlay restricts the
// game to the peers currently online: offline peers own no links, serve
// no paths and must not be counted as unreachable pairs or as deviation
// targets. The masked variants below evaluate a peer against an active
// set — Eval sums run over active partners only, and Unreachable counts
// active peers only — so the lexicographic Eval order, the exact
// oracle's pruning devices and the cardinality bound all stay sound on
// the induced subgame.
//
// Conventions shared by every masked entry point:
//
//   - active == nil means "everyone", and the masked call is then
//     bit-identical to (and delegates to) its unmasked counterpart.
//   - active[i] must be true for the subject peer i, and the profile
//     must carry no links from or to inactive peers (the churn engine's
//     live-profile invariant). Candidate strategies over active targets
//     then compare identically to a from-scratch evaluation of the
//     subgame induced on the active set.

// peerEvalFromActive is peerEvalFrom restricted to the active set: terms
// of inactive partners are skipped entirely (not folded as +Inf), so
// Unreachable counts active peers only. Arithmetic per included pair is
// identical to peerEvalFrom, in the same j order.
func (ev *Evaluator) peerEvalFromActive(d []float64, i, degree int, active []bool) Eval {
	if active == nil {
		return ev.peerEvalFrom(d, i, degree)
	}
	inst := ev.inst
	e := Eval{Cost: Cost{Link: inst.alpha * float64(degree)}}
	row := inst.distRow(i)
	n := inst.N()
	for j := 0; j < n; j++ {
		if j == i || !active[j] {
			continue
		}
		var t float64
		switch inst.modelKind {
		case modelStretch:
			t = d[j] / row[j]
		case modelDistance:
			t = d[j]
		default:
			t = inst.model.Term(d[j], row[j])
		}
		e.Cost.Term += t
		if math.IsInf(t, 1) {
			e.Unreachable++
		} else {
			e.FiniteTerm += t
		}
	}
	return e
}

// PeerEvalActive returns peer i's enriched cost under p counting only
// active partners. With active == nil it equals PeerEval.
func (ev *Evaluator) PeerEvalActive(p Profile, i int, active []bool) Eval {
	d := ev.sssp(p, i, -1, Strategy{})
	return ev.peerEvalFromActive(d, i, p.OutDegree(i), active)
}

// DeviationEvalActive returns peer i's enriched cost under the
// unilateral switch to alt, counting only active partners. It is the
// masked fallback scorer where no DeviationBatch exists (γ>0,
// n>2048).
func (ev *Evaluator) DeviationEvalActive(p Profile, i int, alt Strategy, active []bool) Eval {
	d := ev.sssp(p, i, i, alt)
	return ev.peerEvalFromActive(d, i, alt.Count(), active)
}

// EvalActive is DeviationBatch.Eval restricted to the active set: the
// distance fold is unchanged (folding an inactive column is harmless —
// it is never read), only the accumulation masks inactive partners.
func (b *DeviationBatch) EvalActive(alt Strategy, active []bool) Eval {
	return b.ev.peerEvalFromActive(b.fold(alt), b.i, alt.Count(), active)
}

// PeerEvalActive returns peer i's masked enriched cost under the
// engine's current profile, from the maintained distance row — the O(n)
// masked counterpart of DynEval.PeerEval, bit-identical to
// Evaluator.PeerEvalActive on the same profile.
func (dy *DynEval) PeerEvalActive(i int, active []bool) Eval {
	return dy.ev.peerEvalFromActive(dy.Row(i), i, dy.p.OutDegree(i), active)
}
