package core

// Differential tests for the incremental dynamics engine: DynEval's
// maintained distance rows are checked bit-for-bit against from-scratch
// computation over randomized move sequences in every regime
// (directed/undirected, congestion γ > 0), on hand-built cases that
// steer Phase A through each of its decisions (absorbed weights
// included), and by FuzzDynEval over fuzzed regimes and move scripts,
// with the deviation batches that read the engine's rows. Exact
// equality — not tolerance — is the contract: the incremental engine
// must compute the same floating-point fixpoint as a fresh Dijkstra,
// which is what lets the dynamics layer keep trajectories
// byte-identical.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"selfishnet/internal/bitset"
	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

// mutateStrategy returns a perturbed copy of s: usually a small toggle
// of 1–3 links (the shape of a real best-response step), occasionally a
// full redraw (worst-case delta).
func mutateStrategy(r *rng.RNG, s Strategy, n, self int) Strategy {
	if r.Bool(0.15) {
		return randomStrategy(r, n, self, r.Float64())
	}
	out := s.Clone()
	for toggles := 1 + r.Intn(3); toggles > 0; toggles-- {
		j := r.Intn(n)
		if j == self {
			continue
		}
		out.Flip(j)
	}
	return out
}

func TestDynEvalMatchesFreshSSSPUnderMoveSequences(t *testing.T) {
	r := rng.New(29)
	for _, c := range diffCases() {
		t.Run(c.name, func(t *testing.T) {
			inst := buildDiffInstance(t, r, c)
			ev := NewEvaluator(inst)
			fresh := NewEvaluator(inst)
			p := randomDiffProfile(r, c.n, c.linkProb)
			dy, err := NewDynEval(ev, p)
			if err != nil {
				t.Fatal(err)
			}
			defer dy.Close()
			for move := 0; move < 25; move++ {
				mover := r.Intn(c.n)
				alt := mutateStrategy(r, p.Strategy(mover), c.n, mover)
				if err := p.SetStrategy(mover, alt); err != nil {
					t.Fatal(err)
				}
				if err := dy.Apply(mover, alt); err != nil {
					t.Fatal(err)
				}
				for src := 0; src < c.n; src++ {
					want := fresh.sssp(p, src, -1, Strategy{})
					if j, ok := distsIdentical(dy.Row(src), want); !ok {
						t.Fatalf("move %d (peer %d): row %d differs at %d: incremental %v, fresh %v",
							move, mover, src, j, dy.Row(src)[j], want[j])
					}
					got := dy.PeerEval(src)
					if want := fresh.PeerEval(p, src); got != want {
						t.Fatalf("move %d: PeerEval(%d) = %+v, fresh %+v", move, src, got, want)
					}
				}
			}
		})
	}
}

// scriptCase is a hand-built game for DynEval: its space, options,
// starting links and a script of moves, each giving the mover's new
// links.
type scriptCase struct {
	name  string
	space metric.Space
	opts  []Option
	links map[int][]int
	moves []scriptMove
}

type scriptMove struct {
	mover int
	links []int
}

// runScriptCase plays c's moves through a DynEval and checks, after
// every Apply, that each row == Evaluator.Distances on the same
// profile.
func runScriptCase(t *testing.T, c scriptCase) {
	t.Helper()
	n := c.space.N()
	inst, err := NewInstance(c.space, 1, c.opts...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ProfileFromLinks(n, c.links)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewEvaluator(inst)
	dy, err := NewDynEval(NewEvaluator(inst), p)
	if err != nil {
		t.Fatal(err)
	}
	defer dy.Close()
	for move, m := range c.moves {
		alt := bitset.New(n)
		for _, v := range m.links {
			alt.Add(v)
		}
		if err := p.SetStrategy(m.mover, alt); err != nil {
			t.Fatal(err)
		}
		if err := dy.Apply(m.mover, alt); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < n; s++ {
			want, err := fresh.Distances(p, s)
			if err != nil {
				t.Fatal(err)
			}
			if j, ok := distsIdentical(dy.Row(s), want); !ok {
				t.Fatalf("move %d (peer %d to %v): row %d d[%d] = %v, fresh %v",
					move, m.mover, m.links, s, j, dy.Row(s)[j], want[j])
			}
		}
	}
}

func mustPoints(t *testing.T, pts ...[]float64) metric.Space {
	t.Helper()
	s, err := metric.NewPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustLine(t *testing.T, pos ...float64) metric.Space {
	t.Helper()
	s, err := metric.Line(pos)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDynEvalMatchesFreshOnAbsorbedArcs plays moves on four peers where
// 1 and 2 sit 1e-17 apart, so d + d(1,2) == d at every distance the
// rest reaches them by: the links 1→2 and 2→1 form a tight cycle whose
// weights the addition absorbs. When peer 0 drops 0→1, each of 1 and 2
// still has a tight parent in the other, at the same distance; only the
// strict d(u) < d(v) of Phase A marks them affected, and a fresh
// Dijkstra gives d(0,1) = d(0,2) = 1.2 + d(3,2), not 1.
func TestDynEvalMatchesFreshOnAbsorbedArcs(t *testing.T) {
	moves := []scriptMove{
		{0, []int{3}},    // the absorbed cycle loses its only grounded parent
		{0, []int{1, 3}}, // and gets it back
		{3, nil},         // 2 now hangs off 1 alone
		{1, nil},         // and is cut off
		{3, []int{2}},    // until 3 links to it again
	}
	for _, undirected := range []bool{false, true} {
		var opts []Option
		name := "directed"
		if undirected {
			opts, name = []Option{WithUndirected()}, "undirected"
		}
		t.Run(name, func(t *testing.T) {
			runScriptCase(t, scriptCase{
				space: mustPoints(t, []float64{0, 0}, []float64{1, 0}, []float64{1, 1e-17}, []float64{0, 1.2}),
				opts:  opts,
				links: map[int][]int{0: {1, 3}, 1: {2}, 2: {1}, 3: {2}},
				moves: moves,
			})
		})
	}
}

// TestDynEvalMatchesFreshOnAffectedSets steers Phase A through each of
// its decisions on hand-built games and checks every row against a
// fresh Dijkstra after every move.
func TestDynEvalMatchesFreshOnAffectedSets(t *testing.T) {
	unit, err := metric.Uniform(5)
	if err != nil {
		t.Fatal(err)
	}
	// A directed weight matrix on which 4 has two tight parents, 1 at
	// distance 1 and 3 at distance 3, and 3 descends from 1: when 0
	// drops 0→1, 3 is affected only two levels down the cascade, before
	// 4 is decided.
	w := make([][]float64, 6)
	for i := range w {
		w[i] = make([]float64, 6)
		for j := range w[i] {
			if i != j {
				w[i][j] = 20
			}
		}
	}
	w[0][1], w[1][2], w[2][3], w[1][4], w[3][4], w[0][5], w[5][4] = 1, 1, 1, 3, 1, 10, 1
	deep, err := metric.NewMatrixUnchecked(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []scriptCase{{
		// 3 keeps its tight parent 2 when 1 is lost, then loses both.
		name:  "diamond-keeps-one-parent",
		space: unit,
		links: map[int][]int{0: {1, 2}, 1: {3}, 2: {3}, 3: {4}},
		moves: []scriptMove{{0, []int{2}}, {0, []int{1, 2}}, {2, nil}, {0, nil}},
	}, {
		// Dropping 0→1 cuts the chain 1→2→3→4 at its root: every vertex
		// of it is affected, and 4 is re-settled through 5.
		name:  "tight-chain-tail",
		space: mustLine(t, 0, 1, 2, 3, 4, 6),
		links: map[int][]int{0: {1, 5}, 1: {2}, 2: {3}, 3: {4}, 5: {4}},
		moves: []scriptMove{{0, []int{5}}, {0, []int{1, 5}}, {2, nil}, {5, nil}},
	}, {
		name:  "second-parent-deeper",
		space: deep,
		links: map[int][]int{0: {1, 5}, 1: {2, 4}, 2: {3}, 3: {4}, 5: {4}},
		moves: []scriptMove{{0, []int{5}}, {0, []int{1, 5}}, {3, nil}, {1, []int{2}}},
	}, {
		// 0 reaches 1 only over the reverse traversal of 1's link 1→0.
		name:  "undirected-lost-reverse-arc",
		space: mustPoints(t, []float64{0, 0}, []float64{1, 0}, []float64{2, 0}, []float64{0, 3}),
		opts:  []Option{WithUndirected()},
		links: map[int][]int{1: {0, 2}, 3: {0, 2}},
		moves: []scriptMove{{1, []int{2}}, {1, []int{0, 2}}, {3, []int{2}}, {1, nil}},
	}, {
		// Peer 1 linking to 2 doubles 2's congestion scale, raising the
		// tight arc 0→2 from 2 to 4, while its own new arc offers 3.
		name:  "congested-raised-in-arc",
		space: mustLine(t, 0, 1, 2, 5),
		opts:  []Option{WithCongestion(1)},
		links: map[int][]int{0: {1, 2}, 2: {3}},
		moves: []scriptMove{{1, []int{2}}, {3, []int{2}}, {0, []int{2}}, {1, nil}, {2, nil}},
	}} {
		t.Run(c.name, func(t *testing.T) { runScriptCase(t, c) })
	}
}

// dynFuzzSpaces are FuzzDynEval's metric families: random points (a
// general metric, heap kernel), the unit metric (bitset BFS), an
// integer line (Dial), an asymmetric matrix, real (heap) or integer
// (Dial), where an undirected game's reverse traversals weigh d(u,v),
// not the owner's d(v,u), and random points with a near-coincident
// pair (see nearPoints).
var dynFuzzSpaces = []string{"points", "unit", "int-line", "asym", "near-points"}

// nearPoints draws n random 2-D points, moves point 0 onto the x axis
// and puts point 1 straight above it, offset by less than half an ulp
// of point 0's distance from the rest. Every distance the rest reaches
// either point by then absorbs the pair's own distance (d + d(0,1) ==
// d), so links between them form tight cycles of absorbed weights.
func nearPoints(r *rng.RNG, n int) (metric.Space, error) {
	s, err := metric.UniformPoints(r, n, 2)
	if err != nil {
		return nil, err
	}
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = slices.Clone(s.Position(i))
	}
	pts[0][1] = 0
	rest := 1.0
	for _, q := range pts[2:] {
		dx := q[0] - pts[0][0]
		rest = min(rest, math.Sqrt(dx*dx+q[1]*q[1]))
	}
	pts[1] = []float64{pts[0][0], (math.Nextafter(rest, 2) - rest) / 4}
	return metric.NewPoints(pts)
}

// dynFuzzInstance builds an n-peer instance on the named space in one
// of three regimes: directed, undirected, or congested (γ > 0).
func dynFuzzInstance(t *testing.T, r *rng.RNG, space string, n int, regime uint8) *Instance {
	t.Helper()
	var s metric.Space
	var err error
	switch space {
	case "points":
		s, err = metric.UniformPoints(r, n, 2)
	case "unit":
		s, err = metric.Uniform(n)
	case "int-line":
		pos := make([]float64, n)
		x := 0.0
		for j := range pos {
			x += float64(1 + r.Intn(3))
			pos[j] = x
		}
		s, err = metric.Line(pos)
	case "asym":
		s = randomAsymSpace(t, r, n, r.Bool(0.5))
	case "near-points":
		s, err = nearPoints(r, n)
	}
	if err != nil {
		t.Fatal(err)
	}
	var opts []Option
	switch regime % 3 {
	case 1:
		opts = append(opts, WithUndirected())
	case 2:
		opts = append(opts, WithCongestion(0.25+r.Float64()))
	}
	inst, err := NewInstance(s, 0.5+3*r.Float64(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// FuzzDynEval decodes the fuzz input into a regime (directed, undirected
// or γ > 0 on a general, unit, integer-line or asymmetric metric, or on
// random points with a near-coincident pair; n ≤ 24) and a move script, and drives the script through a DynEval.
// The script's moves toggle a link, redraw a strategy, or play a leave
// (the peer drops its links, then every owner of a link to it drops
// that link) or a join that reuses the index with new links and two
// incumbents linking back. After every Apply the engine's graph must
// equal a fresh graph.build of its profile, each row must ==
// Evaluator.Distances on the same profile and, in the batch regime,
// every peer's batch on the engine's evaluator must have rest rows ==
// an engine-free evaluator's. In a directed game the engine lends
// exactly the rows with no tight link of the peer; in an undirected one
// it lends none, and the batch's Evals must == DeviationEval. The seed
// corpus under testdata/fuzz/FuzzDynEval covers the nine regime ×
// metric pairs of the first three metrics, the undirected game on the
// asymmetric one and the undirected game on the near-coincident pair.
func FuzzDynEval(f *testing.F) {
	f.Fuzz(func(t *testing.T, size, regime uint8, seed uint64, script []byte) {
		n := 2 + int(size)%23
		if len(script) > 64 {
			script = script[:64]
		}
		r, cands := rng.New(seed), rng.New(seed+1) // cands draws only the checked strategies
		inst := dynFuzzInstance(t, r, dynFuzzSpaces[int(regime/3)%len(dynFuzzSpaces)], n, regime)
		ev, fresh := NewEvaluator(inst), NewEvaluator(inst)
		p := randomDiffProfile(r, n, 0.4*r.Float64())
		dy, err := NewDynEval(ev, p)
		if err != nil {
			t.Fatal(err)
		}
		defer dy.Close()
		apply := func(mover int, alt Strategy) {
			t.Helper()
			if err := p.SetStrategy(mover, alt); err != nil {
				t.Fatal(err)
			}
			if err := dy.Apply(mover, alt); err != nil {
				t.Fatal(err)
			}
			var g graph
			g.build(inst, p, -1, Strategy{})
			if u, ok := graphsEqual(&dy.g, &g); !ok {
				t.Fatalf("after a move by %d: the engine's graph differs from a fresh build at row %d", mover, u)
			}
			for s := 0; s < n; s++ {
				want, err := fresh.Distances(p, s)
				if err != nil {
					t.Fatal(err)
				}
				if j, ok := distsIdentical(dy.Row(s), want); !ok {
					t.Fatalf("after a move by %d: row %d d[%d]=%v, fresh %v", mover, s, j, dy.Row(s)[j], want[j])
				}
			}
			if inst.SupportsBatchEval() {
				for i := 0; i < n; i++ {
					checkEngineBatch(t, ev, fresh, dy, p, i, !inst.Undirected())
				}
			}
			if inst.SupportsBatchEval() && inst.Undirected() {
				if st := dy.Stats(); st != (BatchStats{}) {
					t.Fatalf("an undirected engine counted batch rows: %+v", st)
				}
				i := mover % n
				b := ev.NewDeviationBatch(p, i)
				for c := 0; c < 3; c++ {
					alt := randomStrategy(cands, n, i, cands.Float64())
					if got, want := b.Eval(alt), fresh.DeviationEval(p, i, alt); got != want {
						t.Fatalf("after a move by %d: peer %d Eval(%v) %+v, Dijkstra %+v", mover, i, alt, got, want)
					}
				}
			}
		}
		for ; len(script) >= 2; script = script[2:] {
			v := int(script[1]) % n
			switch script[0] % 4 {
			case 0: // toggle one link
				s := p.Strategy(v).Clone()
				if u := (v + 1 + int(script[1])/n) % n; u != v {
					s.Flip(u)
				}
				apply(v, s)
			case 1: // redraw
				apply(v, randomStrategy(r, n, v, r.Float64()))
			case 2: // leave
				apply(v, Strategy{})
				for u := 0; u < n; u++ {
					if u != v && p.Strategy(u).Contains(v) {
						s := p.Strategy(u).Clone()
						s.Remove(v)
						apply(u, s)
					}
				}
			case 3: // join, reusing index v
				apply(v, randomStrategy(r, n, v, 0.4))
				for picks := 0; picks < 2; picks++ {
					if u := r.Intn(n); u != v {
						s := p.Strategy(u).Clone()
						s.Add(v)
						apply(u, s)
					}
				}
			}
		}
	})
}

// graphsEqual reports whether two graphs have the same heads, link
// counts and, per row, the same arcs at == weights, in any order within
// the row; on a mismatch it returns the first row that differs.
func graphsEqual(a, b *graph) (int, bool) {
	if len(a.head) != len(b.head) {
		return 0, false
	}
	for u := range a.owned {
		if a.owned[u] != b.owned[u] || a.head[u+1] != b.head[u+1] {
			return u, false
		}
		row := func(g *graph) []string {
			var arcs []string
			for k := g.head[u]; k < g.head[u+1]; k++ {
				arcs = append(arcs, fmt.Sprintf("%d:%x", g.to[k], math.Float64bits(g.w[k])))
			}
			slices.Sort(arcs)
			return arcs
		}
		if !slices.Equal(row(a), row(b)) {
			return u, false
		}
	}
	return 0, true
}
