package core

import (
	"math"
	"testing"

	"selfishnet/internal/bitset"
	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

// moveSpaces are the metric families the move base is checked on, with
// the kernel each must select: random points (heap), the unit metric
// (bfs) and two small-integer metrics (dial), a random matrix and a
// line. The last three are tie-heavy.
var moveSpaces = []struct{ name, kernel string }{
	{"points", "heap"},
	{"unit", "bfs"},
	{"int", "dial"},
	{"int-line", "dial"},
}

// moveModels are the cost models the move base is checked under.
var moveModels = []CostModel{StretchModel, DistanceModel}

// moveInstance builds an n-peer instance over the named space, directed
// unless opts say otherwise.
func moveInstance(t *testing.T, r *rng.RNG, space string, n int, model CostModel, opts ...Option) *Instance {
	t.Helper()
	var s metric.Space
	var err error
	switch space {
	case "points":
		s, err = metric.UniformPoints(r, n, 2)
	case "unit":
		s, err = metric.Uniform(n)
	case "int":
		s = randomIntSpace(t, r, n, 8)
	case "int-line":
		pos := make([]float64, n)
		x := 0.0
		for j := range pos {
			x += float64(1 + r.Intn(2))
			pos[j] = x
		}
		s, err = metric.Line(pos)
	default:
		t.Fatalf("unknown move space %q", space)
	}
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(s, 1+r.Float64()*3, append(opts, WithModel(model))...)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// checkMoves scores every add, drop and swap from base s on b's move
// base under the sum mask active and requires each to == EvalActive of
// the explicit strategy (Eval as well when active is nil). It returns
// the number of moves checked.
func checkMoves(t *testing.T, b *DeviationBatch, s Strategy, active []bool, tag string) int {
	t.Helper()
	n := len(b.d)
	explicit := func(alt Strategy) Eval {
		e := b.EvalActive(alt, active)
		if active == nil {
			if f := b.Eval(alt); f != e {
				t.Fatalf("%s: Eval %+v != EvalActive(nil) %+v", tag, f, e)
			}
		}
		return e
	}
	if got, want := b.SetBase(s, active), explicit(s); got != want {
		t.Fatalf("%s: base %v: SetBase %+v, want %+v", tag, s, got, want)
	}
	checked := 0
	alt := s.Clone()
	for j := 0; j < n; j++ {
		if j == b.i {
			continue
		}
		if !s.Contains(j) {
			got := b.MoveEval(-1, j)
			alt.Add(j)
			if want := explicit(alt); got != want {
				t.Fatalf("%s: base %v add %d: %+v, want %+v", tag, s, j, got, want)
			}
			alt.Remove(j)
			checked++
			continue
		}
		got := b.MoveEval(j, -1)
		alt.Remove(j)
		if want := explicit(alt); got != want {
			t.Fatalf("%s: base %v drop %d: %+v, want %+v", tag, s, j, got, want)
		}
		checked++
		for k := 0; k < n; k++ {
			if k == b.i || s.Contains(k) {
				continue
			}
			got := b.MoveEval(j, k)
			alt.Add(k)
			if want := explicit(alt); got != want {
				t.Fatalf("%s: base %v swap %d→%d: %+v, want %+v", tag, s, j, k, got, want)
			}
			alt.Remove(k)
			checked++
		}
		alt.Add(j)
	}
	return checked
}

// TestMoveScorerMatchesEval pins the move base's contract: every add,
// drop and swap scores == the Eval (EvalActive under a mask) of the
// explicit strategy, on every kernel and cost model, on tie-heavy
// metrics, and from empty and partial bases that leave columns
// unreachable. After each accepted move — an add folded in by
// AddToBase, a drop or swap by a fresh SetBase — the moves from the new
// base are checked again.
func TestMoveScorerMatchesEval(t *testing.T) {
	r := rng.New(61)
	for _, sp := range moveSpaces {
		for _, model := range moveModels {
			t.Run(sp.name+"/"+model.Name(), func(t *testing.T) {
				checked := 0
				for trial := 0; trial < 3; trial++ {
					n := 5 + r.Intn(14)
					inst := moveInstance(t, r, sp.name, n, model)
					if inst.Kernel() != sp.kernel {
						t.Fatalf("kernel %q, want %q", inst.Kernel(), sp.kernel)
					}
					ev := NewEvaluator(inst)
					// Sparse profiles leave many rest rows +Inf, so
					// partial bases leave columns unreachable.
					p := randomDiffProfile(r, n, []float64{0.05, 0.2, 0.5}[trial])
					for i := 0; i < n; i++ {
						b := ev.NewDeviationBatch(p, i)
						if b == nil {
							t.Fatal("batch unsupported")
						}
						for _, active := range [][]bool{nil, randomActiveMask(r, n, i, 0.6)} {
							s := randomStrategy(r, n, i, 0.3)
							if i%3 == 0 {
								s = bitset.New(n)
							}
							checked += checkMoves(t, b, s, active, "start")
							// Accept a few random moves, rebasing as the
							// oracles do, and re-check from each new base.
							for step := 0; step < 3; step++ {
								j, k := randomMove(r, n, i, s)
								s.Remove(j)
								s.Add(k)
								if j < 0 {
									b.AddToBase(k)
								} else {
									b.SetBase(s, active)
								}
								checked += checkMoves(t, b, s, active, "moved")
							}
						}
					}
				}
				if checked == 0 {
					t.Fatal("no moves checked")
				}
			})
		}
	}
}

// splitPeers lists peer i's possible links among n by membership in s.
func splitPeers(n, i int, s Strategy) (in, out []int) {
	for x := 0; x < n; x++ {
		if x == i {
			continue
		}
		if s.Contains(x) {
			in = append(in, x)
		} else {
			out = append(out, x)
		}
	}
	return in, out
}

// randomMove draws a valid move for peer i from base s among n ≥ 2
// peers: a drop j and an add k, −1 for none, never both −1.
func randomMove(r *rng.RNG, n, i int, s Strategy) (j, k int) {
	in, out := splitPeers(n, i, s)
	j, k = -1, -1
	switch {
	case len(in) == 0:
		k = out[r.Intn(len(out))]
	case len(out) == 0:
		j = in[r.Intn(len(in))]
	default:
		switch r.Intn(3) {
		case 0:
			k = out[r.Intn(len(out))]
		case 1:
			j = in[r.Intn(len(in))]
		default:
			j, k = in[r.Intn(len(in))], out[r.Intn(len(out))]
		}
	}
	return j, k
}

// FuzzMoveScorer decodes an instance size, a seed, the base strategy's
// bits and a move sequence, and checks every step with ==: each move's
// score against the explicit strategy's, then, once the move is
// accepted, the new base's score against the same. Bit 8 of the seed
// masks the sums and bit 9 makes the game undirected, where the
// explicit score is a fresh DeviationEvalActive (EvalActive in a
// directed game). Each move's MoveBetter against the base's Eval must
// agree with its MoveEval too.
func FuzzMoveScorer(f *testing.F) {
	f.Add(uint8(6), uint64(1), uint64(0), []byte{0, 1, 2, 3, 4, 5})
	f.Add(uint8(12), uint64(7), uint64(0b1011_0110), []byte{2, 9, 1, 4, 0, 0, 2, 2})
	f.Add(uint8(39), uint64(3), uint64(1)<<33|1<<5, []byte{0, 7, 0, 8, 1, 0, 2, 1})
	f.Add(uint8(9), uint64(1<<9|5), uint64(0b1100_1010), []byte{0, 3, 2, 1, 1, 0, 2, 5})
	f.Add(uint8(22), uint64(1<<9|8), uint64(0b0110_0001), []byte{1, 0, 0, 4, 2, 9, 0, 1})
	f.Add(uint8(17), uint64(1<<9|1<<8|14), uint64(0b1001), []byte{0, 2, 0, 6, 2, 3, 1, 1})
	f.Add(uint8(30), uint64(1<<9|3), uint64(1)<<20|1<<2, []byte{2, 4, 0, 9, 1, 1, 2, 7})
	f.Fuzz(func(t *testing.T, size uint8, seed uint64, bits uint64, moves []byte) {
		n := 2 + int(size)%40
		r := rng.New(seed)
		space := moveSpaces[seed%uint64(len(moveSpaces))].name
		model := moveModels[(seed/4)%uint64(len(moveModels))]
		var opts []Option
		if seed&(1<<9) != 0 {
			opts = append(opts, WithUndirected())
		}
		inst := moveInstance(t, r, space, n, model, opts...)
		ev, ref := NewEvaluator(inst), NewEvaluator(inst)
		p := randomDiffProfile(r, n, r.Float64()*0.4)
		i := int(seed % uint64(n))
		var active []bool
		if seed&(1<<8) != 0 {
			active = randomActiveMask(r, n, i, 0.6)
		}
		s := bitset.New(n)
		for j := 0; j < n && j < 64; j++ {
			if j != i && bits&(1<<uint(j)) != 0 {
				s.Add(j)
			}
		}
		b := ev.NewDeviationBatch(p, i)
		if b == nil {
			t.Fatal("batch unsupported")
		}
		explicit := func(s Strategy) Eval {
			if inst.Undirected() {
				return ref.DeviationEvalActive(p, i, s, active)
			}
			return b.EvalActive(s, active)
		}
		base := b.SetBase(s, active)
		if want := explicit(s); base != want {
			t.Fatalf("base %v: SetBase %+v, want %+v", s, base, want)
		}
		for len(moves) >= 2 {
			op, pick := moves[0], int(moves[1])
			moves = moves[2:]
			in, out := splitPeers(n, i, s)
			j, k := -1, -1
			switch {
			case op%3 == 0 && len(out) > 0:
				k = out[pick%len(out)]
			case op%3 == 1 && len(in) > 0:
				j = in[pick%len(in)]
			case len(in) > 0 && len(out) > 0:
				j, k = in[pick%len(in)], out[(pick/len(in))%len(out)]
			default:
				continue
			}
			got := b.MoveEval(j, k)
			if e, better := b.MoveBetter(j, k, base, 1e-9); better != got.Better(base, 1e-9) || (better && e != got) {
				t.Fatalf("move (-%d,+%d) from %v: MoveBetter %+v %t, MoveEval %+v", j, k, s, e, better, got)
			}
			s.Remove(j)
			s.Add(k)
			want := explicit(s)
			if got != want {
				t.Fatalf("move (-%d,+%d) to %v: %+v, want %+v", j, k, s, got, want)
			}
			if j < 0 {
				b.AddToBase(k)
				base = got
			} else {
				base = b.SetBase(s, active)
			}
			// An add after the accepted move scores the new base plus
			// one peer: it must match too, so a stale base shows.
			for x := 0; x < n; x++ {
				if x != i && !s.Contains(x) {
					s.Add(x)
					if got, want := b.MoveEval(-1, x), explicit(s); got != want {
						t.Fatalf("after move, add %d to %v: %+v, want %+v", x, s, got, want)
					}
					s.Remove(x)
					break
				}
			}
		}
	})
}

// betterProbes returns the Evals TestMoveBetterMatchesMoveEval holds a
// move with Eval e against, from the base's Eval base: the base, a tie,
// a strictly better Eval, a disconnected one, and two whose Better
// thresholds (Key() − tol) sit one ulp either side of e's key.
func betterProbes(base, e Eval, tol float64) []Eval {
	probes := []Eval{base, e}
	better := e
	better.FiniteTerm = math.Nextafter(e.FiniteTerm-1, math.Inf(-1))
	better.Cost.Term = better.FiniteTerm
	better.Unreachable = 0
	probes = append(probes, better)
	disconnected := e
	disconnected.Unreachable++
	disconnected.Cost.Term = math.Inf(1)
	probes = append(probes, disconnected)
	if e.Unreachable > 0 || math.IsInf(e.Key(), 0) {
		return probes
	}
	// Walk a than's FiniteTerm until its threshold is the ulp just below,
	// then just above, e's key (or as near as a than's key can get).
	for _, dir := range []float64{math.Inf(-1), math.Inf(1)} {
		want := math.Nextafter(e.Key(), dir)
		than := Eval{Cost: Cost{Link: e.Cost.Link}, FiniteTerm: e.FiniteTerm + tol}
		for step := 0; step < 64 && than.Key()-tol != want; step++ {
			if than.Key()-tol < want {
				than.FiniteTerm = math.Nextafter(than.FiniteTerm, math.Inf(1))
			} else {
				than.FiniteTerm = math.Nextafter(than.FiniteTerm, math.Inf(-1))
			}
		}
		than.Cost.Term = than.FiniteTerm
		probes = append(probes, than)
	}
	return probes
}

// TestMoveBetterMatchesMoveEval pins MoveBetter's contract: for every
// add, drop and swap from a base, against the base's Eval, a tie, a
// strictly better Eval, a disconnected one and thresholds one ulp
// either side of the move's key, MoveBetter reports Better iff
// MoveEval(…).Better(than, tol), and when it does its Eval ==
// MoveEval's. Directed and undirected, on every kernel and cost model,
// masked and unmasked.
func TestMoveBetterMatchesMoveEval(t *testing.T) {
	const tol = 1e-9
	r := rng.New(227)
	for _, sp := range moveSpaces {
		for _, model := range moveModels {
			t.Run(sp.name+"/"+model.Name(), func(t *testing.T) {
				checked := 0
				for trial := 0; trial < 4; trial++ {
					n := 4 + r.Intn(14)
					var opts []Option
					if trial%2 == 1 {
						opts = append(opts, WithUndirected())
					}
					inst := moveInstance(t, r, sp.name, n, model, opts...)
					ev := NewEvaluator(inst)
					p := randomDiffProfile(r, n, []float64{0.05, 0.2, 0.35, 0.5}[trial])
					for i := 0; i < n; i++ {
						b := ev.NewDeviationBatch(p, i)
						for _, active := range [][]bool{nil, randomActiveMask(r, n, i, 0.6)} {
							s := randomStrategy(r, n, i, 0.3)
							base := b.SetBase(s, active)
							check := func(j, k int) {
								e := b.MoveEval(j, k)
								for _, than := range betterProbes(base, e, tol) {
									got, better := b.MoveBetter(j, k, than, tol)
									if want := e.Better(than, tol); better != want || (better && got != e) {
										t.Fatalf("peer %d base %v move (-%d,+%d) than %+v: MoveBetter %+v %t, MoveEval %+v %t",
											i, s, j, k, than, got, better, e, want)
									}
									checked++
								}
							}
							in, out := splitPeers(n, i, s)
							for _, k := range out {
								check(-1, k)
							}
							for _, j := range in {
								check(j, -1)
								for _, k := range out {
									check(j, k)
								}
							}
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
