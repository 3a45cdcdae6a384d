package core

import (
	"testing"

	"selfishnet/internal/bitset"
	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

// randomActiveMask returns an online mask over n peers: subject is
// always active, every other peer independently with probability q,
// topped up to at least three active peers so the subgame is not
// degenerate.
func randomActiveMask(r *rng.RNG, n, subject int, q float64) []bool {
	active := make([]bool, n)
	active[subject] = true
	count := 1
	for j := 0; j < n; j++ {
		if j != subject && r.Bool(q) {
			active[j] = true
			count++
		}
	}
	for j := 0; count < 3 && j < n; j++ {
		if !active[j] {
			active[j] = true
			count++
		}
	}
	return active
}

// maskProfile restricts p to the active set in place: inactive peers
// lose their strategies and active peers drop links to inactive
// targets — the churn engine's live-profile invariant.
func maskProfile(t *testing.T, p *Profile, active []bool) {
	t.Helper()
	n := p.N()
	for i := 0; i < n; i++ {
		if !active[i] {
			if err := p.SetStrategy(i, bitset.New(n)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		s := p.Strategy(i).Clone()
		for j := 0; j < n; j++ {
			if !active[j] {
				s.Remove(j)
			}
		}
		if err := p.SetStrategy(i, s); err != nil {
			t.Fatal(err)
		}
	}
}

// allTrue returns the everyone-online mask.
func allTrue(n int) []bool {
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	return active
}

// maskedSumLB sums the model's per-pair lower bounds over active
// partners only — the sumLB contract of a masked ExactSearch.
func maskedSumLB(inst *Instance, i int, active []bool) float64 {
	sum := 0.0
	for j := 0; j < inst.N(); j++ {
		if j != i && (active == nil || active[j]) {
			sum += inst.Model().LowerBound(inst.Distance(i, j))
		}
	}
	return sum
}

// TestMaskedEvalNilAndFullMaskMatchUnmasked pins the delegation
// contract of active.go: active == nil and the all-true mask are both
// bit-identical to the unmasked evaluators, in every regime (directed,
// undirected, congested, all kernels).
func TestMaskedEvalNilAndFullMaskMatchUnmasked(t *testing.T) {
	r := rng.New(61)
	for _, c := range diffCases() {
		t.Run(c.name, func(t *testing.T) {
			inst := buildDiffInstance(t, r, c)
			ev := NewEvaluator(inst)
			p := randomDiffProfile(r, c.n, c.linkProb)
			full := allTrue(c.n)
			for i := 0; i < c.n; i++ {
				want := ev.PeerEval(p, i)
				if got := ev.PeerEvalActive(p, i, nil); got != want {
					t.Fatalf("peer %d: PeerEvalActive(nil) = %+v, unmasked %+v", i, got, want)
				}
				if got := ev.PeerEvalActive(p, i, full); got != want {
					t.Fatalf("peer %d: PeerEvalActive(all-true) = %+v, unmasked %+v", i, got, want)
				}
				alt := mutateStrategy(r, p.Strategy(i), c.n, i)
				wantDev := ev.DeviationEval(p, i, alt)
				if got := ev.DeviationEvalActive(p, i, alt, nil); got != wantDev {
					t.Fatalf("peer %d: DeviationEvalActive(nil) = %+v, unmasked %+v", i, got, wantDev)
				}
				if got := ev.DeviationEvalActive(p, i, alt, full); got != wantDev {
					t.Fatalf("peer %d: DeviationEvalActive(all-true) = %+v, unmasked %+v", i, got, wantDev)
				}
				if b := ev.NewDeviationBatch(p, i); b != nil {
					want := b.Eval(alt)
					if got := b.EvalActive(alt, nil); got != want {
						t.Fatalf("peer %d: batch EvalActive(nil) = %+v, unmasked %+v", i, got, want)
					}
					if got := b.EvalActive(alt, full); got != want {
						t.Fatalf("peer %d: batch EvalActive(all-true) = %+v, unmasked %+v", i, got, want)
					}
				}
			}
		})
	}
}

// TestExactSearchActiveAllTrueMatchesUnmasked runs the masked search
// with the everyone-online mask against the unmasked search and
// demands the identical outcome — strategy, eval and the Resolved
// count, so every pruning device fires at exactly the same nodes.
func TestExactSearchActiveAllTrueMatchesUnmasked(t *testing.T) {
	r := rng.New(67)
	for trial := 0; trial < 6; trial++ {
		c := diffCase{n: 8 + r.Intn(6), linkProb: 0.15 + 0.3*r.Float64()}
		inst := buildDiffInstance(t, r, c)
		ev := NewEvaluator(inst)
		ev2 := NewEvaluator(inst)
		p := randomDiffProfile(r, c.n, c.linkProb)
		i := r.Intn(c.n)
		sumLB := maskedSumLB(inst, i, nil)
		masked := ev.NewDeviationBatch(p, i).
			ExactSearch(p.Strategy(i), allTrue(c.n), sumLB, 1e-9, 0)
		plain := ev2.NewDeviationBatch(p, i).
			ExactSearch(p.Strategy(i), nil, sumLB, 1e-9, 0)
		if !masked.Strategy.Equal(plain.Strategy) {
			t.Fatalf("trial %d: all-true mask changed the best response: %v vs %v",
				trial, masked.Strategy, plain.Strategy)
		}
		if masked.Eval != plain.Eval {
			t.Fatalf("trial %d: all-true mask changed the eval: %+v vs %+v",
				trial, masked.Eval, plain.Eval)
		}
		if masked.Resolved != plain.Resolved {
			t.Fatalf("trial %d: all-true mask changed pruning: resolved %d vs %d",
				trial, masked.Resolved, plain.Resolved)
		}
	}
}

// TestExactSearchActiveMatchesInducedSubInstance is the main soundness
// proof for the masked search: on a live profile (no links touching
// inactive peers) the masked search over the full instance must agree
// — strategy, eval, Resolved — with the unmasked search run from
// scratch on the sub-instance induced on the active peers. Index
// compaction preserves candidate order, so even tie-breaking matches.
func TestExactSearchActiveMatchesInducedSubInstance(t *testing.T) {
	r := rng.New(71)
	for trial := 0; trial < 8; trial++ {
		n := 10 + r.Intn(5)
		space, err := metric.UniformPoints(r, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := NewInstance(space, 2.5)
		if err != nil {
			t.Fatal(err)
		}
		subject := r.Intn(n)
		active := randomActiveMask(r, n, subject, 0.7)
		p := randomDiffProfile(r, n, 0.3)
		maskProfile(t, &p, active)

		ev := NewEvaluator(inst)
		out := ev.NewDeviationBatch(p, subject).
			ExactSearch(p.Strategy(subject), active, maskedSumLB(inst, subject, active), 1e-9, 0)

		// Build the induced sub-instance: active peers, compacted indices.
		var actIdx []int
		inv := make([]int, n)
		for j := 0; j < n; j++ {
			if active[j] {
				inv[j] = len(actIdx)
				actIdx = append(actIdx, j)
			}
		}
		na := len(actIdx)
		d := make([][]float64, na)
		for a := range d {
			d[a] = make([]float64, na)
			for b := range d[a] {
				d[a][b] = inst.Distance(actIdx[a], actIdx[b])
			}
		}
		subSpace, err := metric.NewMatrixUnchecked(d)
		if err != nil {
			t.Fatal(err)
		}
		subInst, err := NewInstance(subSpace, 2.5)
		if err != nil {
			t.Fatal(err)
		}
		subP := NewProfile(na)
		for a, j := range actIdx {
			s := bitset.New(na)
			p.Strategy(j).ForEach(func(k int) bool {
				s.Add(inv[k])
				return true
			})
			if err := subP.SetStrategy(a, s); err != nil {
				t.Fatal(err)
			}
		}
		subEv := NewEvaluator(subInst)
		ai := inv[subject]
		subOut := subEv.NewDeviationBatch(subP, ai).
			ExactSearch(subP.Strategy(ai), nil, maskedSumLB(subInst, ai, nil), 1e-9, 0)

		if out.Eval != subOut.Eval {
			t.Fatalf("trial %d (n=%d, active=%d): masked eval %+v, sub-instance %+v",
				trial, n, na, out.Eval, subOut.Eval)
		}
		if out.Resolved != subOut.Resolved {
			t.Fatalf("trial %d: masked resolved %d, sub-instance %d",
				trial, out.Resolved, subOut.Resolved)
		}
		for j := 0; j < n; j++ {
			if !active[j] {
				if out.Strategy.Contains(j) {
					t.Fatalf("trial %d: masked best response links to offline peer %d", trial, j)
				}
				continue
			}
			if j == subject {
				continue
			}
			if out.Strategy.Contains(j) != subOut.Strategy.Contains(inv[j]) {
				t.Fatalf("trial %d: strategies disagree on peer %d (sub index %d): %v vs %v",
					trial, j, inv[j], out.Strategy, subOut.Strategy)
			}
		}
	}
}

// TestExactSearchActiveOptimalByBruteForce checks global optimality of
// the masked search against a plain enumeration of every subset of the
// active candidates, scored by the masked batch eval: nothing may beat
// the returned eval by more than the tolerance, and the returned
// strategy must actually score the returned eval.
func TestExactSearchActiveOptimalByBruteForce(t *testing.T) {
	r := rng.New(73)
	for trial := 0; trial < 5; trial++ {
		n := 9
		space, err := metric.UniformPoints(r, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := NewInstance(space, 1.0+2.0*r.Float64())
		if err != nil {
			t.Fatal(err)
		}
		subject := r.Intn(n)
		active := randomActiveMask(r, n, subject, 0.8)
		p := randomDiffProfile(r, n, 0.25)
		maskProfile(t, &p, active)

		ev := NewEvaluator(inst)
		b := ev.NewDeviationBatch(p, subject)
		out := b.ExactSearch(p.Strategy(subject), active, maskedSumLB(inst, subject, active), 1e-9, 0)
		if got := b.EvalActive(out.Strategy, active); got != out.Eval {
			t.Fatalf("trial %d: outcome eval %+v but strategy scores %+v", trial, out.Eval, got)
		}
		var cands []int
		for j := 0; j < n; j++ {
			if j != subject && active[j] {
				cands = append(cands, j)
			}
		}
		for mask := 0; mask < 1<<len(cands); mask++ {
			s := bitset.New(n)
			for bi, j := range cands {
				if mask&(1<<bi) != 0 {
					s.Add(j)
				}
			}
			if se := b.EvalActive(s, active); se.Better(out.Eval, 1e-9) {
				t.Fatalf("trial %d: subset %v scores %+v, beats search result %+v",
					trial, s, se, out.Eval)
			}
		}
	}
}
