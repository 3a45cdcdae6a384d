package core

// Tests for the undirected deviation batch: rest rows seeded at the
// deviating peer's direct distances, a fixed row for the first hops it
// cannot drop, and an all-zero hop row. Every score it gives must ==
// DeviationEval (DeviationEvalActive under a mask) of the explicit
// strategy, which runs a fresh Dijkstra, not only the batch's own fold.

import (
	"testing"

	"selfishnet/internal/bitset"
	"selfishnet/internal/rng"
)

// TestUndirectedBatchMatchesDijkstra checks, on the heap, bfs and dial
// kernels, under both cost models, masked and unmasked, that Eval,
// EvalActive, SetBase, MoveEval and MoveBetter of an undirected batch ==
// a fresh DeviationEval(Active) of the strategy each scores. Sparse
// profiles leave columns unreachable, and dense ones give most peers
// links owned by others.
func TestUndirectedBatchMatchesDijkstra(t *testing.T) {
	r := rng.New(211)
	for _, sp := range moveSpaces {
		for _, model := range moveModels {
			t.Run(sp.name+"/"+model.Name(), func(t *testing.T) {
				checked := 0
				for trial := 0; trial < 3; trial++ {
					n := 4 + r.Intn(16)
					inst := moveInstance(t, r, sp.name, n, model, WithUndirected())
					if inst.Kernel() != sp.kernel {
						t.Fatalf("kernel %q, want %q", inst.Kernel(), sp.kernel)
					}
					ev, ref := NewEvaluator(inst), NewEvaluator(inst)
					p := randomDiffProfile(r, n, []float64{0.04, 0.15, 0.4}[trial])
					for i := 0; i < n; i++ {
						b := ev.NewDeviationBatch(p, i)
						if b == nil {
							t.Fatal("undirected batch unsupported")
						}
						for _, active := range [][]bool{nil, randomActiveMask(r, n, i, 0.6)} {
							want := func(alt Strategy) Eval {
								return ref.DeviationEvalActive(p, i, alt, active)
							}
							for c := 0; c < 4; c++ {
								alt := randomStrategy(r, n, i, r.Float64())
								if got, w := b.EvalActive(alt, active), want(alt); got != w {
									t.Fatalf("peer %d: EvalActive(%v) %+v, Dijkstra %+v", i, alt, got, w)
								}
								if active == nil {
									if got, w := b.Eval(alt), ref.DeviationEval(p, i, alt); got != w {
										t.Fatalf("peer %d: Eval(%v) %+v, Dijkstra %+v", i, alt, got, w)
									}
								}
								checked++
							}
							s := randomStrategy(r, n, i, 0.3)
							if i%3 == 0 {
								s = bitset.New(n)
							}
							checked += checkMovesAgainst(t, b, s, active, want)
						}
					}
				}
				if checked == 0 {
					t.Fatal("nothing checked")
				}
			})
		}
	}
}

// checkMovesAgainst sets s as b's move base under the mask active and
// requires SetBase and every add, drop and swap's MoveEval to == want
// of the explicit strategy, and MoveBetter against the base's Eval to
// report Better exactly when that Eval is, with the same Eval. It
// returns the number of scores checked.
func checkMovesAgainst(t *testing.T, b *DeviationBatch, s Strategy, active []bool, want func(Strategy) Eval) int {
	t.Helper()
	base := b.SetBase(s, active)
	if w := want(s); base != w {
		t.Fatalf("peer %d base %v: SetBase %+v, want %+v", b.i, s, base, w)
	}
	checked := 1
	n := len(b.d)
	alt := s.Clone()
	score := func(j, k int) {
		alt.Remove(j)
		alt.Add(k)
		w := want(alt)
		if got := b.MoveEval(j, k); got != w {
			t.Fatalf("peer %d base %v move (-%d,+%d): MoveEval %+v, want %+v", b.i, s, j, k, got, w)
		}
		got, better := b.MoveBetter(j, k, base, 1e-9)
		if better != w.Better(base, 1e-9) || (better && got != w) {
			t.Fatalf("peer %d base %v move (-%d,+%d): MoveBetter %+v %t, want %+v %t",
				b.i, s, j, k, got, better, w, w.Better(base, 1e-9))
		}
		alt.Remove(k)
		alt.Add(j)
		checked++
	}
	for j := 0; j < n; j++ {
		if j == b.i {
			continue
		}
		if !s.Contains(j) {
			score(-1, j)
			continue
		}
		score(j, -1)
		for k := 0; k < n; k++ {
			if k != b.i && !s.Contains(k) {
				score(j, k)
			}
		}
	}
	return checked
}
