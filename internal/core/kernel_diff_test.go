package core

// Differential tests for the metric-specialized SSSP kernel family
// (kernels.go). The dispatch contract is stronger than the dense-
// reference tolerance checks in sssp_diff_test.go: a specialized kernel
// must reproduce the general heap Dijkstra BIT FOR BIT — same floats,
// same +Inf pattern — in every regime (directed, undirected, overrides,
// disconnection), because golden experiment tables and dynamics
// trajectories are pinned byte-identically across kernel switches.
// These tests compare auto-dispatched instances against heap twins
// (pinHeap) on the same space, exactly, with no tolerance.

import (
	"math"
	"testing"

	"selfishnet/internal/bitset"
	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

// kernelCases returns the diff cases whose metric class admits a
// specialized kernel (γ = 0), tagged with the kernel they must select.
func kernelCases() []struct {
	diffCase
	kernel string
} {
	var out []struct {
		diffCase
		kernel string
	}
	for _, c := range diffCases() {
		if c.gamma != 0 {
			continue
		}
		switch c.space {
		case "unit":
			out = append(out, struct {
				diffCase
				kernel string
			}{c, "bfs"})
		case "int", "asym-int":
			out = append(out, struct {
				diffCase
				kernel string
			}{c, "dial"})
		}
	}
	return out
}

// pinHeap turns a freshly built instance into its heap twin: the
// general Dijkstra, whatever the metric class. It must run before any
// evaluator exists; the heap reads none of the specialized kernels'
// tables (hopDist, span), so leaving them set is harmless.
func pinHeap(in *Instance) *Instance {
	in.kernel = kernelHeap
	return in
}

// twinInstances builds the auto-dispatched instance and its heap-pinned
// twin over the same space (the RNG is cloned so both see identical
// random metrics).
func twinInstances(t *testing.T, r *rng.RNG, c diffCase) (auto, heap *Instance) {
	t.Helper()
	seed := r.Uint64()
	auto = buildDiffInstance(t, rng.New(seed), c)
	heap = pinHeap(buildDiffInstance(t, rng.New(seed), c))
	return auto, heap
}

// distsIdentical compares two distance vectors for exact bit equality
// (math.Inf(1) included, since +Inf == +Inf).
func distsIdentical(a, b []float64) (int, bool) {
	for j := range a {
		if a[j] != b[j] && !(math.IsInf(a[j], 1) && math.IsInf(b[j], 1)) {
			return j, false
		}
	}
	return 0, true
}

// TestKernelSelection pins the dispatch table: metric class × γ →
// kernel.
func TestKernelSelection(t *testing.T) {
	r := rng.New(23)
	check := func(name string, inst *Instance, want string) {
		t.Helper()
		if got := inst.Kernel(); got != want {
			t.Errorf("%s: kernel %q, want %q", name, got, want)
		}
	}
	check("unit", buildDiffInstance(t, r, diffCase{n: 12, space: "unit"}), "bfs")
	check("scaled-unit", buildDiffInstance(t, r, diffCase{n: 12, space: "unit", unit: 0.37}), "bfs")
	check("int", buildDiffInstance(t, r, diffCase{n: 12, space: "int"}), "dial")
	check("points", buildDiffInstance(t, r, diffCase{n: 12}), "heap")
	check("unit-congested", buildDiffInstance(t, r, diffCase{n: 12, space: "unit", gamma: 0.5}), "heap")
	check("int-congested", buildDiffInstance(t, r, diffCase{n: 12, space: "int", gamma: 0.5}), "heap")
	check("heap-pinned-unit", pinHeap(buildDiffInstance(t, r, diffCase{n: 12, space: "unit"})), "heap")
}

// boundaryIntSpace builds a deterministic symmetric integer metric
// whose weights are lo except for a sprinkling of pairs at exactly hi
// (hi ≤ 2·lo keeps the triangle inequality free).
func boundaryIntSpace(t *testing.T, n, lo, hi int) metric.Space {
	t.Helper()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := float64(lo)
			if (i+j)%3 == 0 {
				w = float64(hi)
			}
			d[i][j], d[j][i] = w, w
		}
	}
	space, err := metric.NewMatrixUnchecked(d)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// TestKernelDispatchBoundaries pins the dispatch table at its edges:
// weights exactly at metric.MaxSmallIntWeight stay on Dial (and a
// uniform metric AT the boundary weight stays on BFS), one past it
// falls to the heap, and sub-minimal instances are rejected outright.
func TestKernelDispatchBoundaries(t *testing.T) {
	r := rng.New(83)
	maxW := metric.MaxSmallIntWeight

	// Exactly at the boundary: still the Dial class.
	atBoundary := boundaryIntSpace(t, 14, maxW/2, maxW)
	inst, err := NewInstance(atBoundary, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.Kernel(); got != "dial" {
		t.Errorf("weights at MaxSmallIntWeight: kernel %q, want dial", got)
	}

	// One past the boundary: general class.
	pastBoundary := boundaryIntSpace(t, 14, (maxW+1)/2+1, maxW+1)
	inst, err = NewInstance(pastBoundary, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.Kernel(); got != "heap" {
		t.Errorf("weights past MaxSmallIntWeight: kernel %q, want heap", got)
	}

	// A uniform metric at and past the boundary weight: uniform wins
	// over small-int, so both dispatch to BFS.
	uniAt, err := metric.UniformUnit(14, float64(maxW))
	if err != nil {
		t.Fatal(err)
	}
	inst, err = NewInstance(uniAt, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.Kernel(); got != "bfs" {
		t.Errorf("uniform at MaxSmallIntWeight: kernel %q, want bfs", got)
	}
	uniPast, err := metric.UniformUnit(14, float64(maxW+1))
	if err != nil {
		t.Fatal(err)
	}
	inst, err = NewInstance(uniPast, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.Kernel(); got != "bfs" {
		t.Errorf("uniform past MaxSmallIntWeight: kernel %q, want bfs", got)
	}

	// Sub-minimal instances are rejected at construction.
	if _, err := metric.UniformUnit(1, 1); err == nil {
		t.Error("UniformUnit(1): expected error")
	}
	single, err := metric.NewMatrixUnchecked([][]float64{{0}})
	if err == nil {
		if _, err := NewInstance(single, 1); err == nil {
			t.Error("NewInstance(n=1): expected error")
		}
	}

	// Boundary-weight instances must still be bit-identical to the heap
	// across the full eval surface.
	for _, tc := range []struct {
		name  string
		space metric.Space
	}{
		{name: "dial-at-boundary", space: atBoundary},
		{name: "bfs-at-boundary", space: uniAt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			auto, err := NewInstance(tc.space, 2.5)
			if err != nil {
				t.Fatal(err)
			}
			heap, err := NewInstance(tc.space, 2.5)
			if err != nil {
				t.Fatal(err)
			}
			evA, evH := NewEvaluator(auto), NewEvaluator(pinHeap(heap))
			p := randomDiffProfile(r, 14, 0.2)
			if a, h := evA.SocialCost(p), evH.SocialCost(p); a != h {
				t.Fatalf("SocialCost: %+v vs heap %+v", a, h)
			}
			for i := 0; i < 14; i++ {
				if a, h := evA.PeerEval(p, i), evH.PeerEval(p, i); a != h {
					t.Fatalf("PeerEval(%d): %+v vs heap %+v", i, a, h)
				}
			}
		})
	}
}

// TestKernelTwoPeerAndEmptyProfiles pins the degenerate ends of the
// profile space on every kernel: two-peer instances (the smallest the
// core admits) and fully empty-strategy profiles (everything
// unreachable), each compared bit-for-bit against the heap twin — the
// regime where off-by-one frontier bookkeeping would show.
func TestKernelTwoPeerAndEmptyProfiles(t *testing.T) {
	r := rng.New(89)
	for _, kc := range kernelCases() {
		t.Run(kc.name+"-empty", func(t *testing.T) {
			auto, heap := twinInstances(t, r, kc.diffCase)
			evA, evH := NewEvaluator(auto), NewEvaluator(heap)
			empty := NewProfile(kc.n)
			if a, h := evA.SocialCost(empty), evH.SocialCost(empty); a != h {
				t.Fatalf("empty profile SocialCost: %+v vs heap %+v", a, h)
			}
			for i := 0; i < kc.n; i++ {
				a, h := evA.PeerEval(empty, i), evH.PeerEval(empty, i)
				if a != h {
					t.Fatalf("empty profile PeerEval(%d): %+v vs heap %+v", i, a, h)
				}
				if a.Unreachable != kc.n-1 {
					t.Fatalf("empty profile PeerEval(%d): %d unreachable, want %d", i, a.Unreachable, kc.n-1)
				}
			}
			// Deviating OUT of the empty profile: the mover links peers
			// that link no one.
			i := r.Intn(kc.n)
			alt := randomStrategy(r, kc.n, i, 0.5)
			if a, h := evA.DeviationEval(empty, i, alt), evH.DeviationEval(empty, i, alt); a != h {
				t.Fatalf("empty profile DeviationEval: %+v vs heap %+v", a, h)
			}
		})
	}
	for _, tc := range []struct {
		name  string
		space string
		unit  float64
	}{
		{name: "two-peer-bfs", space: "unit"},
		{name: "two-peer-bfs-scaled", space: "unit", unit: 0.37},
		{name: "two-peer-dial", space: "int"},
		{name: "two-peer-heap", space: "points"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := diffCase{n: 2, linkProb: 1, space: tc.space, unit: tc.unit}
			if tc.space == "points" {
				c.space = ""
			}
			auto, heap := twinInstances(t, r, c)
			evA, evH := NewEvaluator(auto), NewEvaluator(heap)
			// All four two-peer profiles: ∅∅, 0→1, 1→0, mutual.
			for mask := 0; mask < 4; mask++ {
				p := NewProfile(2)
				if mask&1 != 0 {
					s := bitset.New(2)
					s.Add(1)
					if err := p.SetStrategy(0, s); err != nil {
						t.Fatal(err)
					}
				}
				if mask&2 != 0 {
					s := bitset.New(2)
					s.Add(0)
					if err := p.SetStrategy(1, s); err != nil {
						t.Fatal(err)
					}
				}
				if a, h := evA.SocialCost(p), evH.SocialCost(p); a != h {
					t.Fatalf("mask %d: SocialCost %+v vs heap %+v", mask, a, h)
				}
				for i := 0; i < 2; i++ {
					if a, h := evA.PeerEval(p, i), evH.PeerEval(p, i); a != h {
						t.Fatalf("mask %d: PeerEval(%d) %+v vs heap %+v", mask, i, a, h)
					}
				}
			}
		})
	}
}

// TestKernelSSSPMatchesHeapBitForBit cross-checks every specialized
// kernel against its heap-pinned twin from every source, with and
// without strategy overrides, over randomized profiles.
func TestKernelSSSPMatchesHeapBitForBit(t *testing.T) {
	r := rng.New(31)
	for _, kc := range kernelCases() {
		t.Run(kc.name, func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				auto, heap := twinInstances(t, r, kc.diffCase)
				if got := auto.Kernel(); got != kc.kernel {
					t.Fatalf("kernel %q, want %q", got, kc.kernel)
				}
				evA, evH := NewEvaluator(auto), NewEvaluator(heap)
				p := randomDiffProfile(r, kc.n, kc.linkProb)
				for src := 0; src < kc.n; src++ {
					a := append([]float64(nil), evA.sssp(p, src, -1, Strategy{})...)
					h := append([]float64(nil), evH.sssp(p, src, -1, Strategy{})...)
					if j, ok := distsIdentical(a, h); !ok {
						t.Fatalf("trial %d src %d: %s d[%d]=%v, heap d[%d]=%v",
							trial, src, kc.kernel, j, a[j], j, h[j])
					}
				}
				// Override regime: the oracle-call shape.
				i := r.Intn(kc.n)
				alt := randomStrategy(r, kc.n, i, kc.linkProb+0.15)
				a := append([]float64(nil), evA.sssp(p, i, i, alt)...)
				h := append([]float64(nil), evH.sssp(p, i, i, alt)...)
				if j, ok := distsIdentical(a, h); !ok {
					t.Fatalf("trial %d override peer %d: %s d[%d]=%v, heap d[%d]=%v",
						trial, i, kc.kernel, j, a[j], j, h[j])
				}
			}
		})
	}
}

// TestKernelEvalsMatchHeapBitForBit checks the full evaluation surface
// — peer evals, social cost, max term, deviation batches — for exact
// equality across kernels: what the scenario engine, the oracles and
// the dynamics trajectories actually consume.
func TestKernelEvalsMatchHeapBitForBit(t *testing.T) {
	r := rng.New(37)
	for _, kc := range kernelCases() {
		t.Run(kc.name, func(t *testing.T) {
			auto, heap := twinInstances(t, r, kc.diffCase)
			evA, evH := NewEvaluator(auto), NewEvaluator(heap)
			p := randomDiffProfile(r, kc.n, kc.linkProb)
			for i := 0; i < kc.n; i++ {
				if a, h := evA.PeerEval(p, i), evH.PeerEval(p, i); a != h {
					t.Fatalf("PeerEval(%d): %+v vs heap %+v", i, a, h)
				}
			}
			if a, h := evA.SocialCost(p), evH.SocialCost(p); a != h {
				t.Fatalf("SocialCost: %+v vs heap %+v", a, h)
			}
			if a, h := evA.MaxTerm(p), evH.MaxTerm(p); a != h {
				t.Fatalf("MaxTerm: %v vs heap %v", a, h)
			}
			i := r.Intn(kc.n)
			bA, bH := evA.NewDeviationBatch(p, i), evH.NewDeviationBatch(p, i)
			if bA == nil || bH == nil {
				t.Fatal("batch unsupported on a congestion-free instance")
			}
			for cand := 0; cand < 10; cand++ {
				alt := randomStrategy(r, kc.n, i, r.Float64())
				if a, h := bA.Eval(alt), bH.Eval(alt); a != h {
					t.Fatalf("batch Eval cand %d: %+v vs heap %+v", cand, a, h)
				}
			}
		})
	}
}

// TestKernelDynEvalMatchesHeapBitForBit drives the incremental engine
// on specialized-kernel instances (whose construction rows settle via
// BFS/Dial) through random move sequences, comparing every distance row
// against the heap-pinned twin engine exactly.
func TestKernelDynEvalMatchesHeapBitForBit(t *testing.T) {
	r := rng.New(41)
	for _, kc := range kernelCases() {
		t.Run(kc.name, func(t *testing.T) {
			auto, heap := twinInstances(t, r, kc.diffCase)
			evA, evH := NewEvaluator(auto), NewEvaluator(heap)
			p := randomDiffProfile(r, kc.n, kc.linkProb)
			dyA, err := NewDynEval(evA, p)
			if err != nil {
				t.Fatal(err)
			}
			defer dyA.Close()
			dyH, err := NewDynEval(evH, p)
			if err != nil {
				t.Fatal(err)
			}
			defer dyH.Close()
			compareRows := func(stage string) {
				t.Helper()
				for s := 0; s < kc.n; s++ {
					if j, ok := distsIdentical(dyA.Row(s), dyH.Row(s)); !ok {
						t.Fatalf("%s: row %d: %s d[%d]=%v, heap d[%d]=%v",
							stage, s, kc.kernel, j, dyA.Row(s)[j], j, dyH.Row(s)[j])
					}
				}
			}
			compareRows("construction")
			for move := 0; move < 6; move++ {
				mover := r.Intn(kc.n)
				alt := randomStrategy(r, kc.n, mover, kc.linkProb+0.1)
				if err := dyA.Apply(mover, alt); err != nil {
					t.Fatal(err)
				}
				if err := dyH.Apply(mover, alt); err != nil {
					t.Fatal(err)
				}
				compareRows("after move")
			}
		})
	}
}

// TestParallelRestRowsByteIdentical checks the intra-step parallel
// deviation-batch path: rest rows filled through an attached pool must
// be byte-identical to the sequential fill, with no engine attached
// (every row settles) and with one (only the rows the engine cannot
// lend settle). Undirected batches seed their rows at the deviating
// peer's direct distances and lend none from the engine; their seeded
// rows and fixed row must match at pool widths 1 and 2.
func TestParallelRestRowsByteIdentical(t *testing.T) {
	r := rng.New(43)
	for _, c := range []diffCase{
		{name: "points", n: 26, linkProb: 0.12},
		{name: "unit", n: 70, linkProb: 0.06, space: "unit"},
		{name: "int", n: 30, linkProb: 0.1, space: "int"},
		{name: "points-undirected", n: 26, linkProb: 0.08, undirected: true},
		{name: "unit-undirected", n: 70, linkProb: 0.04, space: "unit", undirected: true},
		{name: "int-undirected", n: 30, linkProb: 0.06, space: "int", undirected: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			seed := r.Uint64()
			inst := buildDiffInstance(t, rng.New(seed), c)
			evSeq := NewEvaluator(inst)
			evPar := NewEvaluator(inst)
			width := 4
			if c.undirected {
				width = 2
			}
			evPar.AttachPool(NewPool(inst, width))
			p := randomDiffProfile(r, c.n, c.linkProb)

			for _, i := range []int{0, c.n / 2, c.n - 1} {
				bS := evSeq.NewDeviationBatch(p, i)
				bP := evPar.NewDeviationBatch(p, i)
				if bS == nil || bP == nil {
					t.Fatal("batch unsupported")
				}
				if j, ok := distsIdentical(bS.fixed, bP.fixed); !ok {
					t.Fatalf("peer %d fixed row: parallel d[%d]=%v, sequential d[%d]=%v",
						i, j, bP.fixed[j], j, bS.fixed[j])
				}
				for k := 0; k < c.n; k++ {
					if (bS.rest[k] == nil) != (bP.rest[k] == nil) {
						t.Fatalf("peer %d row %d: nil mismatch", i, k)
					}
					if bS.rest[k] == nil {
						continue
					}
					if j, ok := distsIdentical(bS.rest[k], bP.rest[k]); !ok {
						t.Fatalf("peer %d row %d: parallel d[%d]=%v, sequential d[%d]=%v",
							i, k, j, bP.rest[k][j], j, bS.rest[k][j])
					}
				}
			}

			// Engine-backed path: identical move sequences on both
			// engines; every batch request after a move settles the rows
			// with a tight link of the deviating peer — sequentially on
			// one evaluator, through the pool on the other.
			dyS, err := NewDynEval(evSeq, p)
			if err != nil {
				t.Fatal(err)
			}
			defer dyS.Close()
			dyP, err := NewDynEval(evPar, p)
			if err != nil {
				t.Fatal(err)
			}
			defer dyP.Close()
			moves := rng.New(seed + 1)
			for move := 0; move < 5; move++ {
				mover := moves.Intn(c.n)
				alt := randomStrategy(moves, c.n, mover, c.linkProb+0.1)
				if err := dyS.Apply(mover, alt); err != nil {
					t.Fatal(err)
				}
				if err := dyP.Apply(mover, alt); err != nil {
					t.Fatal(err)
				}
				i := moves.Intn(c.n)
				bS := evSeq.NewDeviationBatch(dyS.Profile(), i)
				bP := evPar.NewDeviationBatch(dyP.Profile(), i)
				if bS == nil || bP == nil {
					t.Fatal("batch unsupported")
				}
				for k := 0; k < c.n; k++ {
					if bS.rest[k] == nil {
						continue
					}
					if j, ok := distsIdentical(bS.rest[k], bP.rest[k]); !ok {
						t.Fatalf("move %d peer %d row %d: parallel d[%d]=%v, sequential d[%d]=%v",
							move, i, k, j, bP.rest[k][j], j, bS.rest[k][j])
					}
				}
			}
		})
	}
}

// TestZeroAllocKernelHotPaths pins the arena contract: once warmed up,
// the social-cost sweep, the deviation-batch build and its move base
// allocate nothing, on every kernel.
func TestZeroAllocKernelHotPaths(t *testing.T) {
	r := rng.New(47)
	for _, c := range []diffCase{
		{name: "heap", n: 33, linkProb: 0.15},
		{name: "bfs", n: 70, linkProb: 0.1, space: "unit"},
		{name: "dial", n: 33, linkProb: 0.15, space: "int"},
	} {
		t.Run(c.name, func(t *testing.T) {
			inst := buildDiffInstance(t, r, c)
			ev := NewEvaluator(inst)
			p := randomDiffProfile(r, c.n, c.linkProb)
			_ = ev.SocialCost(p) // warm the arenas
			if b := ev.NewDeviationBatch(p, 1); b == nil {
				t.Fatal("batch unsupported")
			}
			if avg := testing.AllocsPerRun(10, func() { _ = ev.SocialCost(p) }); avg != 0 {
				t.Errorf("SocialCost allocates %v per run, want 0", avg)
			}
			if avg := testing.AllocsPerRun(10, func() {
				if b := ev.NewDeviationBatch(p, 2); b == nil {
					t.Fatal("batch unsupported")
				}
			}); avg != 0 {
				t.Errorf("NewDeviationBatch allocates %v per run, want 0", avg)
			}
			// The move base's columns live on the evaluator too.
			b := ev.NewDeviationBatch(p, 2)
			s := randomStrategy(r, c.n, 2, 0.2)
			s.Add(0)
			s.Remove(3)
			base := b.SetBase(s, nil)
			if avg := testing.AllocsPerRun(10, func() {
				_ = b.SetBase(s, nil)
				_, _, _ = b.MoveEval(-1, 3), b.MoveEval(0, -1), b.MoveEval(0, 3)
				_, _ = b.MoveBetter(0, 3, base, 1e-9)
				b.AddToBase(3)
			}); avg != 0 {
				t.Errorf("the move base allocates %v per run, want 0", avg)
			}
			// An undirected batch adds its fixed row and the all-zero hop
			// row, both evaluator-owned as well.
			uc := c
			uc.undirected = true
			uinst := buildDiffInstance(t, r, uc)
			uev := NewEvaluator(uinst)
			up := randomDiffProfile(r, c.n, c.linkProb)
			_ = uev.NewDeviationBatch(up, 1).SetBase(s, nil)
			if avg := testing.AllocsPerRun(10, func() {
				ub := uev.NewDeviationBatch(up, 2)
				_ = ub.SetBase(s, nil)
				_, _ = ub.MoveBetter(0, 3, base, 1e-9)
			}); avg != 0 {
				t.Errorf("the undirected batch allocates %v per run, want 0", avg)
			}
		})
	}
}
