package core

// Differential tests for the incremental dynamics engine: DynEval's
// maintained distance rows and tight-parent counts are checked
// bit-for-bit against from-scratch computation over randomized move
// sequences in every regime (directed/undirected, congestion γ > 0),
// and FuzzDynEval does the same over fuzzed regimes and move scripts,
// with the deviation batches that read the engine's rows. Exact
// equality — not tolerance — is the contract: the incremental engine
// must compute the same floating-point fixpoint as a fresh Dijkstra,
// which is what lets the dynamics layer keep trajectories
// byte-identical.

import (
	"math"
	"testing"

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

// exactRowsEqual compares two distance vectors for exact equality
// (including +Inf), returning the first mismatching index.
func exactRowsEqual(a, b []float64) (int, bool) {
	for j := range a {
		if a[j] != b[j] && !(math.IsInf(a[j], 1) && math.IsInf(b[j], 1)) {
			return j, false
		}
	}
	return 0, true
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
					if j, ok := exactRowsEqual(dy.Row(src), want); !ok {
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

func TestDynEvalTightParentCountsStayExact(t *testing.T) {
	r := rng.New(31)
	for _, c := range diffCases() {
		t.Run(c.name, func(t *testing.T) {
			inst := buildDiffInstance(t, r, c)
			ev := NewEvaluator(inst)
			p := randomDiffProfile(r, c.n, c.linkProb)
			dy, err := NewDynEval(ev, p)
			if err != nil {
				t.Fatal(err)
			}
			defer dy.Close()
			for move := 0; move < 15; move++ {
				mover := r.Intn(c.n)
				alt := mutateStrategy(r, p.Strategy(mover), c.n, mover)
				if err := p.SetStrategy(mover, alt); err != nil {
					t.Fatal(err)
				}
				if err := dy.Apply(mover, alt); err != nil {
					t.Fatal(err)
				}
				// A from-scratch engine over the same profile recomputes
				// the counts with the full-scan path.
				ref, err := NewDynEval(NewEvaluator(inst), p)
				if err != nil {
					t.Fatal(err)
				}
				for idx := range dy.cnt {
					if dy.cnt[idx] != ref.cnt[idx] {
						t.Fatalf("move %d: cnt[%d] = %d (incremental), %d (fresh)",
							move, idx, dy.cnt[idx], ref.cnt[idx])
					}
				}
				ref.Close()
			}
		})
	}
}

// dynFuzzSpaces are FuzzDynEval's metric families: random points (a
// general metric, heap kernel), the unit metric (bitset BFS) and an
// integer line (Dial).
var dynFuzzSpaces = []string{"points", "unit", "int-line"}

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
// or γ > 0 on a general, unit or integer-line metric, n ≤ 24) and a move
// script, and drives the script through a DynEval. The script's moves
// toggle a link, redraw a strategy, or play a leave (the peer drops its
// links, then every owner of a link to it drops that link) or a join
// that reuses the index with new links and two incumbents linking back.
// After every Apply each row must == Evaluator.Distances on the same
// profile and, in the batch regime, every peer's engine-backed batch
// must have rest rows == an engine-free evaluator's. The seed corpus
// under testdata/fuzz/FuzzDynEval covers the nine regime × metric pairs.
func FuzzDynEval(f *testing.F) {
	f.Fuzz(func(t *testing.T, size, regime uint8, seed uint64, script []byte) {
		n := 2 + int(size)%23
		if len(script) > 64 {
			script = script[:64]
		}
		r := rng.New(seed)
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
					checkEngineBatch(t, ev, fresh, dy, p, i, true)
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
