package core

// Contract tests for the one fold (evaluate.go): peerEvalFrom, the one
// rule that sums a distance row into an Eval, against the
// three-accumulator loop core's row loops ran before it, under every
// mask and model; betterEval against Eval.Better; DynEval's masked Eval
// against the evaluator's; and the exact search's corners (disconnected
// incumbents, budgets, masks) against brute-force enumeration, with
// binomialInt's iterative branch against math/big.

import (
	"math"
	"math/big"
	"testing"

	"selfishnet/internal/bitset"
	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

// refPeerEval is the three-accumulator loop that summed every row
// before the one fold, kept as the reference: over the partners j ≠ i
// with active[j] (nil: every peer), in j order, Cost.Term takes every
// term, FiniteTerm every term but +Inf ones, and Unreachable counts the
// +Inf ones, each term by the model's own Term.
func refPeerEval(inst *Instance, d []float64, i, degree int, active []bool) Eval {
	e := Eval{Cost: Cost{Link: inst.Alpha() * float64(degree)}}
	for j, dj := range d {
		if j == i || (active != nil && !active[j]) {
			continue
		}
		t := inst.Model().Term(dj, inst.Distance(i, j))
		e.Cost.Term += t
		if math.IsInf(t, 1) {
			e.Unreachable++
		} else {
			e.FiniteTerm += t
		}
	}
	return e
}

// foldInstance builds an n-peer instance under model on random points
// (a slab of direct distances) or the implicit unit metric (no slab).
func foldInstance(t *testing.T, r *rng.RNG, space string, n int, model CostModel) *Instance {
	t.Helper()
	var s metric.Space
	var err error
	if space == "unit" {
		s, err = metric.UniformImplicit(n)
	} else {
		s, err = metric.UniformPoints(r, n, 2)
	}
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(s, 3*r.Float64(), WithModel(model))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// foldRow returns a random distance row from peer i: 0 at i, +Inf in
// about one column in five, and elsewhere the direct distance times a
// factor in [1, 3.5).
func foldRow(r *rng.RNG, inst *Instance, i int) []float64 {
	d := make([]float64, inst.N())
	for j := range d {
		switch {
		case j == i:
		case r.Bool(0.2):
			d[j] = math.Inf(1)
		default:
			d[j] = inst.Distance(i, j) * (1 + 2.5*r.Float64())
		}
	}
	return d
}

// TestPeerEvalFromMatchesReference pins the one fold's contract: on
// random rows with +Inf columns, under nil, all-true and random masks,
// for both cost models, peerEvalFrom carries the bits of the
// three-accumulator reference loop; and betterEval, against Evals
// connected and not, reports true exactly when that Eval is Better,
// returning it when it does.
func TestPeerEvalFromMatchesReference(t *testing.T) {
	r := rng.New(241)
	for _, space := range []string{"points", "unit"} {
		for _, model := range foldModels {
			t.Run(space+"/"+model.Name(), func(t *testing.T) {
				for trial := 0; trial < 25; trial++ {
					n := 2 + r.Intn(40)
					inst := foldInstance(t, r, space, n, model)
					ev := NewEvaluator(inst)
					i := r.Intn(n)
					d, other := foldRow(r, inst, i), foldRow(r, inst, i)
					degree := r.Intn(n)
					for _, active := range [][]bool{nil, allTrue(n), randomActiveMask(r, n, i, 0.6)} {
						want := refPeerEval(inst, d, i, degree, active)
						if got := ev.peerEvalFrom(d, i, degree, active); !evalsIdentical(got, want) {
							t.Fatalf("trial %d, n=%d, peer %d, mask %v: peerEvalFrom %+v, reference %+v", trial, n, i, active, got, want)
						}
						base := refPeerEval(inst, other, i, r.Intn(n), active)
						for _, tol := range []float64{0, 1e-9, 0.5} {
							probes := betterProbes(base, want, tol)
							if want.Unreachable > 0 {
								fewer := want
								fewer.Unreachable--
								probes = append(probes, fewer)
							}
							for _, than := range probes {
								got, ok := ev.betterEval(d, i, degree, active, than, tol)
								if wantOK := want.Better(than, tol); ok != wantOK {
									t.Fatalf("trial %d, n=%d: betterEval vs %+v (tol %g) reports %v, Better says %v for %+v", trial, n, than, tol, ok, wantOK, want)
								}
								if ok && !evalsIdentical(got, want) {
									t.Fatalf("trial %d, n=%d: betterEval vs %+v returned %+v, want %+v", trial, n, than, got, want)
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestDynEvalPeerEvalActiveMatchesEvaluator pins DynEval.PeerEvalActive,
// the churn engine's per-peer cost, to Evaluator.PeerEvalActive on the
// engine's profile, under nil, all-true and random masks, in every
// regime, before and after moves.
func TestDynEvalPeerEvalActiveMatchesEvaluator(t *testing.T) {
	r := rng.New(251)
	for _, c := range diffCases() {
		t.Run(c.name, func(t *testing.T) {
			inst := buildDiffInstance(t, r, c)
			dy, err := NewDynEval(NewEvaluator(inst), randomDiffProfile(r, c.n, c.linkProb))
			if err != nil {
				t.Fatal(err)
			}
			defer dy.Close()
			ref := NewEvaluator(inst)
			for step := 0; step < 3; step++ {
				for i := 0; i < c.n; i++ {
					for _, active := range [][]bool{nil, allTrue(c.n), randomActiveMask(r, c.n, i, 0.6)} {
						if got, want := dy.PeerEvalActive(i, active), ref.PeerEvalActive(dy.Profile(), i, active); got != want {
							t.Fatalf("step %d, peer %d, mask %v: DynEval %+v, Evaluator %+v", step, i, active, got, want)
						}
					}
				}
				mover := r.Intn(c.n)
				if err := dy.Apply(mover, mutateStrategy(r, dy.Profile().Strategy(mover), c.n, mover)); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// bruteExact is what ExactSearch's outcome stands for, enumerated with
// no pruning: the incumbent, then the full strategy, then every subset
// of the candidates (the active peers but i) in increasing cardinality
// and, within one, in lexicographic order, each scored by refPeerEval
// over the batch's fold and taken on a strict Better. The cardinality
// bound α·k + sumLB ends the loop once it cannot beat a connected
// incumbent, and every subset scored after the incumbent counts against
// budget (> 0).
func bruteExact(b *DeviationBatch, incumbent Strategy, active []bool, sumLB, tol float64, budget int) ExactSearchOutcome {
	inst := b.ev.inst
	n, i := inst.N(), b.i
	eval := func(s Strategy) Eval {
		return refPeerEval(inst, append([]float64(nil), b.fold(s)...), i, s.Count(), active)
	}
	var cands []int
	for j := 0; j < n; j++ {
		if j != i && (active == nil || active[j]) {
			cands = append(cands, j)
		}
	}
	out := ExactSearchOutcome{Strategy: incumbent.Clone(), Eval: eval(incumbent)}
	score := func(s Strategy) bool {
		out.Resolved++
		if budget > 0 && out.Resolved > budget {
			out.OverBudget = true
			return false
		}
		if e := eval(s); e.Better(out.Eval, tol) {
			out.Strategy, out.Eval = s.Clone(), e
		}
		return true
	}
	var pick func(start, k int, s Strategy) bool
	pick = func(start, k int, s Strategy) bool {
		if k == 0 {
			return score(s)
		}
		for ci := start; ci <= len(cands)-k; ci++ {
			s.Add(cands[ci])
			ok := pick(ci+1, k-1, s)
			s.Remove(cands[ci])
			if !ok {
				return false
			}
		}
		return true
	}
	if !score(bitset.FromSlice(cands)) {
		return out
	}
	alpha := inst.Alpha()
	for k := 0; k < len(cands); k++ {
		if alpha > 0 && out.Eval.Unreachable == 0 && alpha*float64(k)+sumLB >= out.Eval.Key()-tol {
			break
		}
		if !pick(0, k, bitset.New(n)) {
			break
		}
	}
	return out
}

// TestExactSearchMatchesBruteForce runs ExactSearch at n ≤ 10, directed
// and undirected, masked and unmasked, under both cost models, from the
// profile's strategy or the empty one (both often disconnected on these
// sparse profiles), with no budget, a budget it just fits, and budgets
// it overruns, against bruteExact: the same OverBudget verdict and,
// within budget, the same strategy, Eval bits and Resolved count.
func TestExactSearchMatchesBruteForce(t *testing.T) {
	r := rng.New(257)
	const tol = 1e-9
	for _, model := range foldModels {
		for _, undirected := range []bool{false, true} {
			for trial := 0; trial < 6; trial++ {
				n := 4 + r.Intn(7)
				space, err := metric.UniformPoints(r, n, 2)
				if err != nil {
					t.Fatal(err)
				}
				opts := []Option{WithModel(model)}
				if undirected {
					opts = append(opts, WithUndirected())
				}
				inst, err := NewInstance(space, 0.5+3*r.Float64(), opts...)
				if err != nil {
					t.Fatal(err)
				}
				i := r.Intn(n)
				var active []bool
				if trial%2 == 1 {
					active = randomActiveMask(r, n, i, 0.7)
				}
				p := randomDiffProfile(r, n, 0.3)
				if active != nil {
					maskProfile(t, &p, active)
				}
				incumbent := p.Strategy(i)
				if trial%3 == 0 {
					incumbent = bitset.New(n)
				}
				sumLB := maskedSumLB(inst, i, active)
				b := NewEvaluator(inst).NewDeviationBatch(p, i)
				all := bruteExact(b, incumbent, active, sumLB, tol, 0)
				tag := model.Name() + "/directed"
				if undirected {
					tag = model.Name() + "/undirected"
				}
				for _, budget := range []int{0, all.Resolved, all.Resolved - 1, 1 + r.Intn(all.Resolved)} {
					want := bruteExact(b, incumbent, active, sumLB, tol, budget)
					got := b.ExactSearch(incumbent, active, sumLB, tol, budget)
					if got.OverBudget != want.OverBudget {
						t.Fatalf("%s trial %d (n=%d, budget %d of %d): OverBudget %v, brute force %v", tag, trial, n, budget, all.Resolved, got.OverBudget, want.OverBudget)
					}
					if want.OverBudget {
						continue
					}
					if !got.Strategy.Equal(want.Strategy) || !evalsIdentical(got.Eval, want.Eval) || got.Resolved != want.Resolved {
						t.Fatalf("%s trial %d (n=%d, mask %v, budget %d): search %v %+v resolved %d, brute force %v %+v resolved %d",
							tag, trial, n, active, budget, got.Strategy, got.Eval, got.Resolved, want.Strategy, want.Eval, want.Resolved)
					}
				}
			}
		}
	}
}

// TestBinomialIntIterativeBranch pins binomialInt past its Pascal table
// (a > 64, the branch churn's budgeted search takes at n > 65) against
// math/big for a ≤ 200: every value is exact or MaxInt; MaxInt first
// stands for a value that would fit at C(65, 23) ≈ 2.27e17, so every
// smaller value is exact; and for each a, once some b ≤ a/2 saturates,
// every larger b up to a/2 does too. C(a, b) = C(a, a−b), and b outside
// [0, a] gives 0.
func TestBinomialIntIterativeBranch(t *testing.T) {
	firstEarly := new(big.Int).Binomial(65, 23)
	if binomialInt(65, 23) != math.MaxInt || binomialInt(65, 22) == math.MaxInt {
		t.Fatalf("binomialInt(65, 22..23) = %d, %d: the first early saturation moved", binomialInt(65, 22), binomialInt(65, 23))
	}
	for a := binomTableMaxInt + 1; a <= 200; a++ {
		if binomialInt(a, -1) != 0 || binomialInt(a, a+1) != 0 {
			t.Fatalf("binomialInt(%d, b) outside 0 ≤ b ≤ a is not 0", a)
		}
		saturated := false
		for b := 0; b <= a/2; b++ {
			got := binomialInt(a, b)
			if mirror := binomialInt(a, a-b); mirror != got {
				t.Fatalf("binomialInt(%d, %d) = %d but binomialInt(%d, %d) = %d", a, b, got, a, a-b, mirror)
			}
			want := new(big.Int).Binomial(int64(a), int64(b))
			switch {
			case got == math.MaxInt:
				if want.Cmp(firstEarly) < 0 {
					t.Fatalf("binomialInt(%d, %d) saturates at %v, below C(65, 23)", a, b, want)
				}
				saturated = true
			case saturated:
				t.Fatalf("binomialInt(%d, %d) = %d after a smaller b saturated", a, b, got)
			case want.Cmp(big.NewInt(int64(got))) != 0:
				t.Fatalf("binomialInt(%d, %d) = %d, want %v", a, b, got, want)
			}
		}
	}
}
