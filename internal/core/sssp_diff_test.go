package core

// Differential tests for the heap SSSP: the production path (prepare +
// indexed-heap ssspFrom) and the batched deviation evaluator are checked
// against the retained dense O(n²) reference (ssspDense) on randomized
// instances spanning every regime the evaluator dispatches on — directed
// and undirected links, congestion γ > 0, and strategy overrides.

import (
	"math"
	"testing"

	"selfishnet/internal/bitset"
	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

const diffTol = 1e-9

// diffCase is one randomized instance/profile regime. space selects the
// metric family — and with it the SSSP kernel the instance dispatches
// to: "" or "points" (random 2-D points, heap), "unit" (uniform metric,
// word-parallel BFS; unit scales the common distance, default 1),
// "int" (random small-integer metric, Dial bucket queue), "asym" (an
// asymmetric matrix, d(i,j) and d(j,i) drawn apart, heap) and
// "asym-int" (its integer twin, Dial).
type diffCase struct {
	name       string
	n          int
	linkProb   float64
	undirected bool
	gamma      float64
	space      string
	unit       float64
}

func diffCases() []diffCase {
	return []diffCase{
		{name: "directed-sparse", n: 23, linkProb: 0.08},
		{name: "directed-small-frontier", n: 12, linkProb: 0.25},
		{name: "directed-dense", n: 17, linkProb: 0.5},
		{name: "directed-disconnected", n: 19, linkProb: 0.03},
		{name: "undirected-sparse", n: 21, linkProb: 0.08, undirected: true},
		{name: "undirected-dense", n: 15, linkProb: 0.4, undirected: true},
		{name: "congested", n: 18, linkProb: 0.2, gamma: 0.7},
		{name: "congested-undirected", n: 16, linkProb: 0.15, undirected: true, gamma: 1.3},
		{name: "tiny", n: 3, linkProb: 0.5},
		// Kernel-dispatch regimes: the BFS kernel across word-boundary
		// sizes, non-integer units, undirectedness and disconnection…
		{name: "bfs-directed", n: 40, linkProb: 0.1, space: "unit"},
		{name: "bfs-word-boundary", n: 64, linkProb: 0.08, space: "unit"},
		{name: "bfs-multiword", n: 70, linkProb: 0.05, space: "unit"},
		{name: "bfs-scaled-unit", n: 33, linkProb: 0.12, space: "unit", unit: 0.37},
		{name: "bfs-undirected", n: 29, linkProb: 0.1, space: "unit", undirected: true},
		{name: "bfs-disconnected", n: 41, linkProb: 0.02, space: "unit"},
		{name: "bfs-tiny", n: 5, linkProb: 0.4, space: "unit"},
		// …the Dial kernel on random integer metrics…
		{name: "dial-directed", n: 31, linkProb: 0.1, space: "int"},
		{name: "dial-undirected", n: 27, linkProb: 0.1, space: "int", undirected: true},
		{name: "dial-disconnected", n: 25, linkProb: 0.03, space: "int"},
		// …γ > 0 on both classes, which must fall back to the heap…
		{name: "bfs-congested-fallback", n: 22, linkProb: 0.15, space: "unit", gamma: 0.5},
		{name: "dial-congested-fallback", n: 22, linkProb: 0.15, space: "int", gamma: 0.9},
		// …and undirected games on the small-frontier loop (n ≤ 16) and
		// on asymmetric matrices, where the reverse traversal u→v of v's
		// link weighs d(u,v)·scale[v], not the owner's d(v,u).
		{name: "dial-undirected-small-frontier", n: 14, linkProb: 0.2, space: "int", undirected: true},
		{name: "asym-undirected-small-frontier", n: 9, linkProb: 0.3, space: "asym", undirected: true},
		{name: "asym-undirected", n: 23, linkProb: 0.12, space: "asym", undirected: true},
		{name: "asym-undirected-congested-small-frontier", n: 14, linkProb: 0.25, space: "asym", undirected: true, gamma: 0.7},
		{name: "asym-undirected-congested", n: 23, linkProb: 0.12, space: "asym", undirected: true, gamma: 0.7},
		{name: "dial-asym-undirected", n: 23, linkProb: 0.12, space: "asym-int", undirected: true},
	}
}

// diffSpace builds the metric space for a case. Integer metrics draw
// distances uniformly from [8, 16]: the max is at most twice the min,
// so the triangle inequality holds for free.
func diffSpace(t *testing.T, r *rng.RNG, c diffCase) metric.Space {
	t.Helper()
	switch c.space {
	case "", "points":
		space, err := metric.UniformPoints(r, c.n, 2)
		if err != nil {
			t.Fatal(err)
		}
		return space
	case "unit":
		space, err := metric.Uniform(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if c.unit != 0 && c.unit != 1 {
			scaled, err := metric.Scale(space, c.unit)
			if err != nil {
				t.Fatal(err)
			}
			return scaled
		}
		return space
	case "int":
		return randomIntSpace(t, r, c.n, 8)
	case "asym", "asym-int":
		return randomAsymSpace(t, r, c.n, c.space == "asym-int")
	default:
		t.Fatalf("unknown diff space %q", c.space)
		return nil
	}
}

// randomIntSpace builds a random symmetric integer metric with
// distances in [lo, 2·lo].
func randomIntSpace(t *testing.T, r *rng.RNG, n, lo int) metric.Space {
	t.Helper()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := float64(lo + r.Intn(lo+1))
			d[i][j], d[j][i] = w, w
		}
	}
	space, err := metric.NewMatrixUnchecked(d)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// randomAsymSpace builds an n-peer matrix whose ordered pairs are drawn
// independently, so d(i,j) ≠ d(j,i) almost everywhere: reals in [0.5,
// 2.5), or with integer set integers in [8, 16]. It need not be a
// metric, and NewMatrixUnchecked does not ask it to be.
func randomAsymSpace(t *testing.T, r *rng.RNG, n int, integer bool) metric.Space {
	t.Helper()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			switch {
			case i == j:
			case integer:
				d[i][j] = float64(8 + r.Intn(9))
			default:
				d[i][j] = 0.5 + 2*r.Float64()
			}
		}
	}
	space, err := metric.NewMatrixUnchecked(d)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

func buildDiffInstance(t *testing.T, r *rng.RNG, c diffCase) *Instance {
	t.Helper()
	space := diffSpace(t, r, c)
	opts := []Option{}
	if c.undirected {
		opts = append(opts, WithUndirected())
	}
	if c.gamma > 0 {
		opts = append(opts, WithCongestion(c.gamma))
	}
	inst, err := NewInstance(space, 2.5, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func randomStrategy(r *rng.RNG, n, self int, q float64) Strategy {
	s := bitset.New(n)
	for j := 0; j < n; j++ {
		if j != self && r.Bool(q) {
			s.Add(j)
		}
	}
	return s
}

func randomDiffProfile(r *rng.RNG, n int, q float64) Profile {
	p := NewProfile(n)
	for i := 0; i < n; i++ {
		_ = p.SetStrategy(i, randomStrategy(r, n, i, q))
	}
	return p
}

// distsEqual compares two distance vectors entry-wise: +Inf must match
// exactly, finite entries within tol.
func distsEqual(a, b []float64, tol float64) (int, bool) {
	for j := range a {
		ia, ib := math.IsInf(a[j], 1), math.IsInf(b[j], 1)
		if ia != ib {
			return j, false
		}
		if !ia && math.Abs(a[j]-b[j]) > tol {
			return j, false
		}
	}
	return 0, true
}

// TestHeapSSSPMatchesDenseReference cross-checks the heap SSSP against
// the dense reference from every source, without overrides.
func TestHeapSSSPMatchesDenseReference(t *testing.T) {
	r := rng.New(7)
	for _, c := range diffCases() {
		t.Run(c.name, func(t *testing.T) {
			for trial := 0; trial < 4; trial++ {
				inst := buildDiffInstance(t, r, c)
				ev := NewEvaluator(inst)
				p := randomDiffProfile(r, c.n, c.linkProb)
				for src := 0; src < c.n; src++ {
					dense := append([]float64(nil), ev.ssspDense(p, src, -1, Strategy{})...)
					heap := append([]float64(nil), ev.sssp(p, src, -1, Strategy{})...)
					if j, ok := distsEqual(heap, dense, diffTol); !ok {
						t.Fatalf("trial %d src %d: heap d[%d]=%v, dense d[%d]=%v",
							trial, src, j, heap[j], j, dense[j])
					}
				}
			}
		})
	}
}

// TestHeapSSSPMatchesDenseReferenceWithOverride cross-checks deviation
// evaluation: a random peer's strategy is overridden by a random
// alternative, exactly as best-response oracles do.
func TestHeapSSSPMatchesDenseReferenceWithOverride(t *testing.T) {
	r := rng.New(11)
	for _, c := range diffCases() {
		t.Run(c.name, func(t *testing.T) {
			for trial := 0; trial < 6; trial++ {
				inst := buildDiffInstance(t, r, c)
				ev := NewEvaluator(inst)
				p := randomDiffProfile(r, c.n, c.linkProb)
				i := r.Intn(c.n)
				alt := randomStrategy(r, c.n, i, c.linkProb+0.1)
				dense := append([]float64(nil), ev.ssspDense(p, i, i, alt)...)
				heap := append([]float64(nil), ev.sssp(p, i, i, alt)...)
				if j, ok := distsEqual(heap, dense, diffTol); !ok {
					t.Fatalf("trial %d peer %d: heap d[%d]=%v, dense d[%d]=%v",
						trial, i, j, heap[j], j, dense[j])
				}
			}
		})
	}
}

// TestDeviationBatchMatchesDeviationEval checks the batched deviation
// evaluator against per-candidate SSSP on the regimes that support it.
func TestDeviationBatchMatchesDeviationEval(t *testing.T) {
	r := rng.New(13)
	for trial := 0; trial < 8; trial++ {
		c := diffCase{n: 5 + r.Intn(20), linkProb: 0.05 + 0.4*r.Float64()}
		inst := buildDiffInstance(t, r, c)
		ev := NewEvaluator(inst)
		p := randomDiffProfile(r, c.n, c.linkProb)
		i := r.Intn(c.n)
		b := ev.NewDeviationBatch(p, i)
		if b == nil {
			t.Fatalf("trial %d: batch unsupported on a directed congestion-free instance", trial)
		}
		for cand := 0; cand < 12; cand++ {
			alt := randomStrategy(r, c.n, i, r.Float64())
			got := b.Eval(alt)
			want := ev.DeviationEval(p, i, alt)
			if got.Unreachable != want.Unreachable {
				t.Fatalf("trial %d cand %d: unreachable %d, want %d", trial, cand, got.Unreachable, want.Unreachable)
			}
			if math.Abs(got.Key()-want.Key()) > diffTol {
				t.Fatalf("trial %d cand %d: key %v, want %v", trial, cand, got.Key(), want.Key())
			}
			if math.Abs(got.Cost.Link-want.Cost.Link) > diffTol {
				t.Fatalf("trial %d cand %d: link %v, want %v", trial, cand, got.Cost.Link, want.Cost.Link)
			}
		}
	}
}

// TestDeviationBatchUnsupportedRegimes pins the oracle fallback
// contract: congested instances, and instances above the batch cap,
// must return nil. An undirected instance gets a batch, and its Evals
// must == DeviationEval.
func TestDeviationBatchUnsupportedRegimes(t *testing.T) {
	r := rng.New(17)
	for _, c := range []diffCase{
		{name: "undirected", n: 9, linkProb: 0.3, undirected: true},
		{name: "congested", n: 9, linkProb: 0.3, gamma: 0.5},
	} {
		t.Run(c.name, func(t *testing.T) {
			inst := buildDiffInstance(t, r, c)
			ev := NewEvaluator(inst)
			p := randomDiffProfile(r, c.n, c.linkProb)
			b := ev.NewDeviationBatch(p, 0)
			if !c.undirected {
				if b != nil {
					t.Fatalf("expected nil batch for %s instance", c.name)
				}
				return
			}
			if b == nil {
				t.Fatal("no batch for an undirected congestion-free instance")
			}
			ref := NewEvaluator(inst)
			for cand := 0; cand < 20; cand++ {
				alt := randomStrategy(r, c.n, 0, r.Float64())
				if got, want := b.Eval(alt), ref.DeviationEval(p, 0, alt); got != want {
					t.Fatalf("cand %v: batch %+v, Dijkstra %+v", alt, got, want)
				}
			}
		})
	}
	t.Run("above-cap", func(t *testing.T) {
		space, err := metric.UniformImplicit(maxBatchPeers + 1)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := NewInstance(space, 1)
		if err != nil {
			t.Fatal(err)
		}
		if inst.SupportsBatchEval() {
			t.Fatal("SupportsBatchEval above the batch cap")
		}
		if b := NewEvaluator(inst).NewDeviationBatch(NewProfile(inst.N()), 0); b != nil {
			t.Fatalf("expected nil batch at n = %d", inst.N())
		}
	})
}

// TestSSSPMatchesSingleCallAfterMultiSource guards the prepare-once
// contract: interleaving multi-source evaluations (which share one
// prepared adjacency) with single-call paths must not leak state.
func TestSSSPMatchesSingleCallAfterMultiSource(t *testing.T) {
	r := rng.New(19)
	c := diffCase{n: 14, linkProb: 0.25}
	inst := buildDiffInstance(t, r, c)
	ev := NewEvaluator(inst)
	p := randomDiffProfile(r, c.n, c.linkProb)
	q := randomDiffProfile(r, c.n, c.linkProb)

	_ = ev.SocialCost(p) // prepares p's adjacency
	gotQ := ev.PeerEval(q, 3)
	evFresh := NewEvaluator(inst)
	wantQ := evFresh.PeerEval(q, 3)
	if gotQ != wantQ {
		t.Fatalf("PeerEval after SocialCost on another profile: got %+v, want %+v", gotQ, wantQ)
	}
}
