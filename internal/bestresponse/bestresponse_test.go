package bestresponse

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"selfishnet/internal/bitset"
	"selfishnet/internal/core"
	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

func evaluatorFor(t *testing.T, positions []float64, alpha float64) *core.Evaluator {
	t.Helper()
	s, err := metric.Line(positions)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(s, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewEvaluator(inst)
}

func TestExactTwoPeers(t *testing.T) {
	ev := evaluatorFor(t, []float64{0, 1}, 5)
	p := core.NewProfile(2)
	res, err := (&Exact{}).BestResponse(ev, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Strategy.Contains(1) || res.Strategy.Count() != 1 {
		t.Fatalf("best response = %v, want {1}", res.Strategy)
	}
	if math.Abs(res.Eval.Key()-6) > 1e-9 { // α + stretch 1
		t.Errorf("cost = %f, want 6", res.Eval.Key())
	}
	if res.Eval.Unreachable != 0 {
		t.Errorf("Unreachable = %d", res.Eval.Unreachable)
	}
}

func TestExactPrefersCollinearRelay(t *testing.T) {
	// Line 0,1,2 at positions 0,1,2 with peer 1 linking to 2. For peer 0,
	// linking only to 1 reaches 2 with stretch 1 (collinear), so with
	// α = 10 the single link {1} beats {1,2}.
	ev := evaluatorFor(t, []float64{0, 1, 2}, 10)
	p := core.NewProfile(3)
	if err := p.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	res, err := (&Exact{}).BestResponse(ev, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := bitset.FromSlice([]int{1})
	if !res.Strategy.Equal(want) {
		t.Fatalf("best response = %v, want {1}", res.Strategy)
	}
	if math.Abs(res.Eval.Key()-12) > 1e-9 { // α·1 + 1 + 1
		t.Errorf("cost = %f, want 12", res.Eval.Key())
	}
}

func TestExactHighStretchForcesLink(t *testing.T) {
	// Theorem 4.1's argument: if stretch(π, π') > α+1 a direct link pays
	// off. Place 2 at a detour so that routing 0→1→2 has stretch > α+1.
	s, err := metric.NewPoints([][]float64{{0, 0}, {-10, 0}, {0.5, 0}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(s, 2) // stretch via 1: 20.5/0.5 = 41 > 3
	if err != nil {
		t.Fatal(err)
	}
	ev := core.NewEvaluator(inst)
	p := core.NewProfile(3)
	_ = p.AddLink(0, 1)
	_ = p.AddLink(1, 0)
	_ = p.AddLink(1, 2)
	_ = p.AddLink(2, 1)
	res, err := (&Exact{}).BestResponse(ev, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Strategy.Contains(2) {
		t.Fatalf("best response %v should include the direct link to 2", res.Strategy)
	}
}

// bruteForce enumerates every subset via integer masks (n ≤ 16).
func bruteForce(ev *core.Evaluator, p core.Profile, i int) Result {
	n := ev.Instance().N()
	var best Result
	first := true
	for mask := 0; mask < 1<<(n-1); mask++ {
		s := bitset.New(n)
		for b := 0; b < n-1; b++ {
			if mask&(1<<b) != 0 {
				j := b
				if j >= i {
					j++
				}
				s.Add(j)
			}
		}
		e := ev.DeviationEval(p, i, s)
		if first || e.Better(best.Eval, Tolerance) {
			best = Result{Strategy: s, Eval: e}
			first = false
		}
	}
	return best
}

func TestExactMatchesBruteForce(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 25; trial++ {
		n := 3 + r.Intn(4) // 3..6
		space, err := metric.UniformPoints(r, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		alpha := r.Range(0, 6)
		inst, err := core.NewInstance(space, alpha)
		if err != nil {
			t.Fatal(err)
		}
		ev := core.NewEvaluator(inst)
		p := core.NewProfile(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && r.Bool(0.3) {
					_ = p.AddLink(i, j)
				}
			}
		}
		for i := 0; i < n; i++ {
			got, err := (&Exact{}).BestResponse(ev, p, i)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForce(ev, p, i)
			if got.Eval.Unreachable != want.Eval.Unreachable ||
				math.Abs(got.Eval.Key()-want.Eval.Key()) > 1e-9 {
				t.Fatalf("trial %d peer %d: exact %v (%f) vs brute %v (%f)",
					trial, i, got.Strategy, got.Eval.Key(), want.Strategy, want.Eval.Key())
			}
		}
	}
}

func TestExactNeverWorseThanIncumbent(t *testing.T) {
	ev := evaluatorFor(t, []float64{0, 1, 2, 4}, 1)
	p := core.NewProfile(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				_ = p.AddLink(i, j)
			}
		}
	}
	for i := 0; i < 4; i++ {
		res, err := (&Exact{}).BestResponse(ev, p, i)
		if err != nil {
			t.Fatal(err)
		}
		cur := ev.PeerEval(p, i)
		if cur.Better(res.Eval, Tolerance) {
			t.Fatalf("peer %d: exact result worse than incumbent", i)
		}
	}
}

func TestExactBudget(t *testing.T) {
	// α = 0 disables pruning, so a tiny budget must trip.
	ev := evaluatorFor(t, []float64{0, 1, 2, 3, 4, 5, 6}, 0)
	p := core.NewProfile(7)
	_, err := (&Exact{MaxEvaluations: 3}).BestResponse(ev, p, 0)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestOracleRangeErrors(t *testing.T) {
	ev := evaluatorFor(t, []float64{0, 1}, 1)
	p := core.NewProfile(2)
	for _, o := range []Oracle{&Exact{}, &LocalSearch{}, &Greedy{}} {
		if _, err := o.BestResponse(ev, p, -1); err == nil {
			t.Errorf("%s: negative peer should error", o.Name())
		}
		if _, err := o.BestResponse(ev, p, 2); err == nil {
			t.Errorf("%s: out-of-range peer should error", o.Name())
		}
	}
}

func TestHeuristicsNeverBeatExact(t *testing.T) {
	r := rng.New(41)
	exact := &Exact{}
	heuristics := []Oracle{&LocalSearch{}, &Greedy{}}
	for trial := 0; trial < 15; trial++ {
		n := 3 + r.Intn(4)
		space, err := metric.UniformPoints(r, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := core.NewInstance(space, r.Range(0.5, 4))
		if err != nil {
			t.Fatal(err)
		}
		ev := core.NewEvaluator(inst)
		p := core.NewProfile(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && r.Bool(0.4) {
					_ = p.AddLink(i, j)
				}
			}
		}
		for i := 0; i < n; i++ {
			ex, err := exact.BestResponse(ev, p, i)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range heuristics {
				res, err := h.BestResponse(ev, p, i)
				if err != nil {
					t.Fatal(err)
				}
				if res.Eval.Better(ex.Eval, Tolerance) {
					t.Fatalf("%s beat exact for peer %d (%f < %f)",
						h.Name(), i, res.Eval.Key(), ex.Eval.Key())
				}
			}
		}
	}
}

func TestLocalSearchEscapesDisconnection(t *testing.T) {
	// From an empty strategy, hill climbing must still add links: the
	// Eval ordering rewards reducing the unreachable count.
	ev := evaluatorFor(t, []float64{0, 1, 5}, 1)
	p := core.NewProfile(3)
	res, err := (&LocalSearch{}).BestResponse(ev, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Eval.Unreachable != 0 {
		t.Fatalf("local search left peer disconnected: %+v", res.Eval)
	}
}

func TestGreedyFallsBackToIncumbent(t *testing.T) {
	// Make the incumbent strategy already optimal; greedy from scratch
	// must not return anything worse.
	ev := evaluatorFor(t, []float64{0, 1}, 3)
	p := core.NewProfile(2)
	_ = p.AddLink(0, 1)
	res, err := (&Greedy{}).BestResponse(ev, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Eval.Key() > ev.PeerEval(p, 0).Key()+Tolerance {
		t.Fatal("greedy returned worse than incumbent")
	}
}

func TestImprovement(t *testing.T) {
	ev := evaluatorFor(t, []float64{0, 1}, 2)
	// Mutual links: the unique Nash for n=2. No improvement available.
	p := core.NewProfile(2)
	_ = p.AddLink(0, 1)
	_ = p.AddLink(1, 0)
	gain, _, err := Improvement(ev, p, 0, &Exact{})
	if err != nil {
		t.Fatal(err)
	}
	if gain > Tolerance {
		t.Errorf("gain = %f on a Nash profile", gain)
	}
	// Empty profile: peer 0 restores reachability, gain = +Inf.
	empty := core.NewProfile(2)
	gain, dev, err := Improvement(ev, empty, 0, &Exact{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(gain, 1) {
		t.Errorf("gain = %f, want +Inf", gain)
	}
	if !dev.Strategy.Contains(1) {
		t.Errorf("deviation %v should link to 1", dev.Strategy)
	}
}

func TestEvalGainSigns(t *testing.T) {
	a := core.Eval{Unreachable: 1}
	b := core.Eval{Unreachable: 0}
	if g := a.Gain(b); !math.IsInf(g, 1) {
		t.Errorf("gain to connected = %f, want +Inf", g)
	}
	if g := b.Gain(a); !math.IsInf(g, -1) {
		t.Errorf("gain to disconnected = %f, want -Inf", g)
	}
}

// TestHillClimbMask pins HillClimb's active mask, which churn's
// fallback repair uses: an all-true mask climbs exactly as nil does
// (same strategy, Eval ==, and the same TermLowerBound), and a random
// mask never links an inactive peer — on directed, undirected and
// congested (γ > 0) instances.
func TestHillClimbMask(t *testing.T) {
	r := rng.New(53)
	for _, tc := range []struct {
		name string
		opts []core.Option
	}{
		{"directed", nil},
		{"undirected", []core.Option{core.WithUndirected()}},
		{"congested", []core.Option{core.WithCongestion(0.5)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 4; trial++ {
				n := 6 + r.Intn(4)
				space, err := metric.UniformPoints(r, n, 2)
				if err != nil {
					t.Fatal(err)
				}
				inst, err := core.NewInstance(space, r.Range(0.5, 4), tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				ev := core.NewEvaluator(inst)
				all := make([]bool, n)
				active := make([]bool, n)
				for j := range all {
					all[j] = true
					active[j] = r.Bool(0.6)
				}
				p := core.NewProfile(n)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if i != j && r.Bool(0.3) {
							_ = p.AddLink(i, j)
						}
					}
				}
				for i := 0; i < n; i++ {
					moves := movesFor(ev, p, i)
					want := HillClimb(n, i, p.Strategy(i), moves, nil, 0)
					got := HillClimb(n, i, p.Strategy(i), moves, all, 0)
					if !got.Strategy.Equal(want.Strategy) || got.Eval != want.Eval {
						t.Fatalf("trial %d peer %d: all-true mask %v %+v, nil mask %v %+v",
							trial, i, got.Strategy, got.Eval, want.Strategy, want.Eval)
					}
					if a, b := TermLowerBound(inst, i, all), TermLowerBound(inst, i, nil); a != b {
						t.Fatalf("trial %d peer %d: TermLowerBound all-true %v, nil %v", trial, i, a, b)
					}
					// The unmasked score rewards links to inactive peers
					// (they still relay and count as targets), so only the
					// mask keeps the climb off them.
					start := p.Strategy(i).Clone()
					for j := 0; j < n; j++ {
						if !active[j] {
							start.Remove(j)
						}
					}
					res := HillClimb(n, i, start, moves, active, 0)
					res.Strategy.ForEach(func(j int) bool {
						if !active[j] {
							t.Fatalf("trial %d peer %d: masked climb linked inactive peer %d (%v)", trial, i, j, res.Strategy)
						}
						return true
					})
				}
			}
		})
	}
}

// TestUndirectedExactStackMatchesScan: in undirected games the exact
// oracle runs its stack search on a seeded deviation batch, whose Evals
// == DeviationEval, so it must return what the per-candidate scan does
// — Strategy Equal, Eval == and the same Evaluations() — on every
// kernel (random points: heap, the unit metric: bfs, an integer line:
// dial), under stretch and distance.
func TestUndirectedExactStackMatchesScan(t *testing.T) {
	r := rng.New(223)
	spaces := map[string]func(n int) (metric.Space, error){
		"points": func(n int) (metric.Space, error) { return metric.UniformPoints(r, n, 2) },
		"unit":   func(n int) (metric.Space, error) { return metric.UniformImplicit(n) },
		"int-line": func(n int) (metric.Space, error) {
			pos := make([]float64, n)
			x := 0.0
			for j := range pos {
				x += float64(1 + r.Intn(3))
				pos[j] = x
			}
			return metric.Line(pos)
		},
	}
	checked := 0
	for _, name := range []string{"points", "unit", "int-line"} {
		for _, model := range []core.CostModel{core.StretchModel, core.DistanceModel} {
			t.Run(name+"/"+model.Name(), func(t *testing.T) {
				for trial := 0; trial < 20; trial++ {
					n := 4 + r.Intn(7)
					space, err := spaces[name](n)
					if err != nil {
						t.Fatal(err)
					}
					inst, err := core.NewInstance(space, r.Range(0.2, 4), core.WithUndirected(), core.WithModel(model))
					if err != nil {
						t.Fatal(err)
					}
					ev, ref := core.NewEvaluator(inst), core.NewEvaluator(inst)
					p := core.NewProfile(n)
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							if i != j && r.Bool([]float64{0.05, 0.2, 0.4}[trial%3]) {
								_ = p.AddLink(i, j)
							}
						}
					}
					for i := 0; i < n; i++ {
						stack, scan := &Exact{}, &Exact{}
						got, err := stack.BestResponse(ev, p, i)
						if err != nil {
							t.Fatal(err)
						}
						want, err := scan.bestResponseScan(ref, p, i)
						if err != nil {
							t.Fatal(err)
						}
						if !got.Strategy.Equal(want.Strategy) || got.Eval != want.Eval || stack.Evaluations() != scan.Evaluations() {
							t.Fatalf("trial %d peer %d: stack %v %+v after %d, scan %v %+v after %d",
								trial, i, got.Strategy, got.Eval, stack.Evaluations(), want.Strategy, want.Eval, scan.Evaluations())
						}
						checked++
					}
				}
			})
		}
	}
	if checked == 0 {
		t.Fatal("no best responses checked")
	}
}

// TestMoveScorerSourcesAgree is the differential behind the move base:
// HillClimb and greedy over the batch's move base (BatchMoves) must
// return the same Result — Strategy Equal, Eval == — as over the
// adapter that scores each explicit strategy with b.Eval (b.EvalActive
// under a mask), unmasked and masked, on tie-free random points and on
// the tie-heavy unit metric and integer line. In undirected games the
// adapter scores with a fresh DeviationEval(Active), so the move base
// is held to Dijkstra's bits.
func TestMoveScorerSourcesAgree(t *testing.T) {
	r := rng.New(67)
	spaces := map[string]func(n int) (metric.Space, error){
		"points": func(n int) (metric.Space, error) { return metric.UniformPoints(r, n, 2) },
		"unit":   func(n int) (metric.Space, error) { return metric.UniformImplicit(n) },
		"int-line": func(n int) (metric.Space, error) {
			pos := make([]float64, n)
			x := 0.0
			for j := range pos {
				x += float64(1 + r.Intn(2))
				pos[j] = x
			}
			return metric.Line(pos)
		},
	}
	for _, name := range []string{"points", "unit", "int-line", "points-undirected", "unit-undirected", "int-line-undirected"} {
		t.Run(name, func(t *testing.T) {
			family, undirected := strings.CutSuffix(name, "-undirected")
			var opts []core.Option
			if undirected {
				opts = append(opts, core.WithUndirected())
			}
			for trial := 0; trial < 4; trial++ {
				n := 6 + r.Intn(12)
				space, err := spaces[family](n)
				if err != nil {
					t.Fatal(err)
				}
				inst, err := core.NewInstance(space, r.Range(0.5, 4), opts...)
				if err != nil {
					t.Fatal(err)
				}
				ev, ref := core.NewEvaluator(inst), core.NewEvaluator(inst)
				p := core.NewProfile(n)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if i != j && r.Bool(0.25) {
							_ = p.AddLink(i, j)
						}
					}
				}
				for i := 0; i < n; i++ {
					b := ev.NewDeviationBatch(p, i)
					if b == nil {
						t.Fatal("batch unsupported")
					}
					mask := make([]bool, n)
					for j := range mask {
						mask[j] = j == i || r.Bool(0.7)
					}
					for _, active := range [][]bool{nil, mask} {
						start := p.Strategy(i).Clone()
						for j := 0; j < n; j++ {
							if active != nil && !active[j] {
								start.Remove(j)
							}
						}
						explicit := ScoredMoves(func(s core.Strategy) core.Eval {
							switch {
							case undirected:
								return ref.DeviationEvalActive(p, i, s, active)
							case active == nil:
								return b.Eval(s)
							}
							return b.EvalActive(s, active)
						})
						base := BatchMoves(b, active)
						same := func(what string, got, want Result) {
							t.Helper()
							if !got.Strategy.Equal(want.Strategy) || got.Eval != want.Eval {
								t.Fatalf("trial %d peer %d masked=%t %s: move base %v %+v, explicit %v %+v",
									trial, i, active != nil, what, got.Strategy, got.Eval, want.Strategy, want.Eval)
							}
						}
						for _, maxIter := range []int{0, 1, 2} {
							same(fmt.Sprintf("HillClimb maxIter=%d", maxIter),
								HillClimb(n, i, start, base, active, maxIter),
								HillClimb(n, i, start, explicit, active, maxIter))
						}
						same("greedy", greedy(n, i, start, base), greedy(n, i, start, explicit))
					}
				}
			}
		})
	}
}
