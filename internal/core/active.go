package core

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
//   - active == nil means "everyone": peerEvalFrom, the one rule that
//     sums a row into an Eval, takes the mask, so the masked call with
//     nil or the all-true mask is bit-identical to its unmasked
//     counterpart. Terms of inactive partners are skipped entirely (not
//     folded as +Inf); every included pair's arithmetic is the same, in
//     the same j order.
//   - active[i] must be true for the subject peer i, and the profile
//     must carry no links from or to inactive peers (the churn engine's
//     live-profile invariant). Candidate strategies over active targets
//     then compare identically to a from-scratch evaluation of the
//     subgame induced on the active set.

// PeerEvalActive returns peer i's enriched cost under p counting only
// active partners. With active == nil it equals PeerEval.
func (ev *Evaluator) PeerEvalActive(p Profile, i int, active []bool) Eval {
	d := ev.sssp(p, i, -1, Strategy{})
	return ev.peerEvalFrom(d, i, p.OutDegree(i), active)
}

// DeviationEvalActive returns peer i's enriched cost under the
// unilateral switch to alt, counting only active partners. It is the
// masked fallback scorer where no DeviationBatch exists (γ>0,
// n>2048).
func (ev *Evaluator) DeviationEvalActive(p Profile, i int, alt Strategy, active []bool) Eval {
	d := ev.sssp(p, i, i, alt)
	return ev.peerEvalFrom(d, i, alt.Count(), active)
}

// EvalActive is DeviationBatch.Eval restricted to the active set: the
// distance fold is unchanged (folding an inactive column is harmless —
// it is never read), only the sum skips inactive partners.
func (b *DeviationBatch) EvalActive(alt Strategy, active []bool) Eval {
	return b.ev.peerEvalFrom(b.fold(alt), b.i, alt.Count(), active)
}

// PeerEvalActive returns peer i's masked enriched cost under the
// engine's current profile, from the maintained distance row — the O(n)
// masked counterpart of DynEval.PeerEval, bit-identical to
// Evaluator.PeerEvalActive on the same profile.
func (dy *DynEval) PeerEvalActive(i int, active []bool) Eval {
	return dy.ev.peerEvalFrom(dy.Row(i), i, dy.p.OutDegree(i), active)
}
