package core

// Differential tests for the banded distance store and the multi-source
// bitset BFS (msbfs.go), plus the implicit uniform instance storage.
// The contract is the house invariant, stated bit-for-bit: at EVERY
// band width, on every kernel and regime, the streamed Evals, the
// expanded level rows and the banded social-cost fold must equal the
// slab path exactly — and an
// instance over the implicit O(1)-storage uniform space must be
// indistinguishable, bit for bit, from one over the dense Uniform
// matrix.

import (
	"math"
	"testing"

	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

// bandWidths returns the band widths exercised against an n-peer
// instance: the degenerate band 1, small odd widths, both sides of the
// 64-source word boundary, and full-width (clamped internally).
func bandWidths(n int) []int {
	return []int{1, 2, 3, 63, 64, 65, n, n + 7}
}

// TestSocialCostBandedMatchesSlabBitForBit folds the banded social cost
// at every band width against the slab-path SocialCost, across every
// diff regime (all three kernels, directed/undirected, γ > 0,
// disconnection), at every fan-out width. Exact struct equality: same
// Link, same Term bits.
func TestSocialCostBandedMatchesSlabBitForBit(t *testing.T) {
	r := rng.New(53)
	for _, c := range diffCases() {
		t.Run(c.name, func(t *testing.T) {
			inst := buildDiffInstance(t, r, c)
			ev := NewEvaluator(inst)
			p := randomDiffProfile(r, c.n, c.linkProb)
			want := ev.SocialCost(p)
			for _, w := range fanOutWidths {
				atWidth(w, func() {
					for _, band := range bandWidths(c.n) {
						got, err := ev.SocialCostBanded(p, band)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("width %d band %d: %+v, slab %+v", w, band, got, want)
						}
					}
				})
			}
		})
	}
}

// TestSSSPBandsRowsMatchSlabBitForBit checks the streamed path of
// settleEvals over all n sources against the slab path, exactly, at
// band widths straddling the 64-source chunk boundary: every Eval
// equals peerEvalFrom over the slab-path ssspFrom row, and on kernelBFS
// instances every expanded level row equals that row — the multi-word,
// disconnected and undirected BFS regimes are where the mask and level
// bookkeeping could go wrong.
func TestSSSPBandsRowsMatchSlabBitForBit(t *testing.T) {
	r := rng.New(59)
	for _, c := range diffCases() {
		t.Run(c.name, func(t *testing.T) {
			inst := buildDiffInstance(t, r, c)
			evBand := NewEvaluator(inst)
			p := randomDiffProfile(r, c.n, c.linkProb)
			slab, evals := slabReference(inst, p, -1, Strategy{})
			for _, band := range bandWidths(c.n) {
				seen := 0
				evBand.settleEvals(p, -1, Strategy{}, inst.peers, band, func(src int32, e Eval) bool {
					if int(src) != seen {
						t.Fatalf("band %d: visited src %d, want %d (order contract)", band, src, seen)
					}
					seen++
					if e != evals[src] {
						t.Fatalf("band %d src %d: banded %+v, slab %+v", band, src, e, evals[src])
					}
					return true
				})
				if seen != c.n {
					t.Fatalf("band %d: visited %d sources, want %d", band, seen, c.n)
				}
				if !inst.msbfsBand(band) {
					continue
				}
				for src, d := range levelRows(evBand, p, -1, Strategy{}, inst.peers, band) {
					if j, ok := distsIdentical(d, slab[src]); !ok {
						t.Fatalf("band %d src %d: level row d[%d]=%v, slab d[%d]=%v",
							band, src, j, d[j], j, slab[src][j])
					}
				}
			}
		})
	}
}

// TestStreamedEvalsMatchBitForBit checks the slab-free single-source
// eval surface — PeerEvalStreamed and DeviationEvalStreamed — against
// PeerEval/DeviationEval exactly, in every regime including overrides
// that disconnect the mover, and on kernelBFS instances the mover's
// one-source level table, expanded, against its slab row.
func TestStreamedEvalsMatchBitForBit(t *testing.T) {
	r := rng.New(61)
	for _, c := range diffCases() {
		t.Run(c.name, func(t *testing.T) {
			inst := buildDiffInstance(t, r, c)
			evStream := NewEvaluator(inst)
			evSlab := NewEvaluator(inst)
			p := randomDiffProfile(r, c.n, c.linkProb)
			// checkLevels compares source i's one-source level row, with
			// peer override playing alt, against its slab row.
			checkLevels := func(i, override int, alt Strategy) {
				t.Helper()
				if !inst.msbfsBand(1) {
					return
				}
				want := evSlab.sssp(p, i, override, alt)
				got := levelRows(evStream, p, override, alt, []int32{int32(i)}, 1)[0]
				if j, ok := distsIdentical(got, want); !ok {
					t.Fatalf("override %d source %d: level row d[%d]=%v, slab %v", override, i, j, got[j], want[j])
				}
			}
			for i := 0; i < c.n; i++ {
				if got, want := evStream.PeerEvalStreamed(p, i), evSlab.PeerEval(p, i); got != want {
					t.Fatalf("PeerEvalStreamed(%d): %+v, want %+v", i, got, want)
				}
				checkLevels(i, -1, Strategy{})
			}
			for trial := 0; trial < 4; trial++ {
				i := r.Intn(c.n)
				alt := randomStrategy(r, c.n, i, c.linkProb+0.1)
				got := evStream.DeviationEvalStreamed(p, i, alt)
				want := evSlab.DeviationEval(p, i, alt)
				if got != want {
					t.Fatalf("DeviationEvalStreamed(%d): %+v, want %+v", i, got, want)
				}
				checkLevels(i, i, alt)
				empty := Strategy{}
				if got, want := evStream.DeviationEvalStreamed(p, i, empty), evSlab.DeviationEval(p, i, empty); got != want {
					t.Fatalf("DeviationEvalStreamed(%d, empty): %+v, want %+v", i, got, want)
				}
				checkLevels(i, i, empty)
			}
		})
	}
}

// TestSSSPBandsRejectsInvalidBand pins the band validation of the
// banded fold (band 0 is the row loop's slab path, not a band width).
func TestSSSPBandsRejectsInvalidBand(t *testing.T) {
	r := rng.New(67)
	inst := buildDiffInstance(t, r, diffCase{n: 8, linkProb: 0.3, space: "unit"})
	ev := NewEvaluator(inst)
	p := randomDiffProfile(r, 8, 0.3)
	for _, band := range []int{0, -1} {
		if _, err := ev.SocialCostBanded(p, band); err == nil {
			t.Errorf("SocialCostBanded(%d): expected error", band)
		}
	}
}

// TestImplicitUniformMatchesDenseBitForBit builds twin instances over
// metric.UniformImplicit (O(1) storage, no slab) and metric.Uniform
// (dense matrix) and requires the full evaluation surface to agree
// exactly: kernel dispatch, Distance, peer/deviation evals, social cost
// (slab, banded and streamed), directed and undirected, unit 1 and a
// non-integer unit.
func TestImplicitUniformMatchesDenseBitForBit(t *testing.T) {
	r := rng.New(71)
	for _, tc := range []struct {
		name       string
		n          int
		unit       float64
		undirected bool
	}{
		{name: "directed-unit1", n: 70, unit: 1},
		{name: "undirected-unit1", n: 29, unit: 1, undirected: true},
		{name: "directed-scaled", n: 33, unit: 0.37},
		{name: "word-boundary", n: 64, unit: 1},
		{name: "tiny", n: 2, unit: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			imp, err := metric.UniformUnit(tc.n, tc.unit)
			if err != nil {
				t.Fatal(err)
			}
			var dense metric.Space
			base, err := metric.Uniform(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			dense = base
			if tc.unit != 1 {
				if dense, err = metric.Scale(base, tc.unit); err != nil {
					t.Fatal(err)
				}
			}
			var opts []Option
			if tc.undirected {
				opts = append(opts, WithUndirected())
			}
			instImp, err := NewInstance(imp, 2.5, opts...)
			if err != nil {
				t.Fatal(err)
			}
			instDense, err := NewInstance(dense, 2.5, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if instImp.dist != nil {
				t.Fatal("implicit instance materialized a slab")
			}
			if got, want := instImp.Kernel(), instDense.Kernel(); got != want {
				t.Fatalf("kernel %q, dense %q", got, want)
			}
			for i := 0; i < tc.n; i++ {
				for j := 0; j < tc.n; j++ {
					if got, want := instImp.Distance(i, j), instDense.Distance(i, j); got != want {
						t.Fatalf("Distance(%d,%d): %v, dense %v", i, j, got, want)
					}
				}
			}
			evImp, evDense := NewEvaluator(instImp), NewEvaluator(instDense)
			p := randomDiffProfile(r, tc.n, 0.1)
			if got, want := evImp.SocialCost(p), evDense.SocialCost(p); got != want {
				t.Fatalf("SocialCost: %+v, dense %+v", got, want)
			}
			for _, band := range bandWidths(tc.n) {
				got, err := evImp.SocialCostBanded(p, band)
				if err != nil {
					t.Fatal(err)
				}
				if want := evDense.SocialCost(p); got != want {
					t.Fatalf("banded(%d): %+v, dense slab %+v", band, got, want)
				}
			}
			for i := 0; i < tc.n; i++ {
				if got, want := evImp.PeerEvalStreamed(p, i), evDense.PeerEval(p, i); got != want {
					t.Fatalf("PeerEvalStreamed(%d): %+v, dense %+v", i, got, want)
				}
			}
			i := r.Intn(tc.n)
			alt := randomStrategy(r, tc.n, i, 0.25)
			if got, want := evImp.DeviationEvalStreamed(p, i, alt), evDense.DeviationEval(p, i, alt); got != want {
				t.Fatalf("DeviationEvalStreamed(%d): %+v, dense %+v", i, got, want)
			}
		})
	}
}

// TestZeroAllocBandedHotPath pins the arena contract for the banded
// fold: once warmed, SocialCostBanded allocates nothing.
// testing.AllocsPerRun pins GOMAXPROCS to 1, so this sees only the
// sequential path, where the caller's evaluator keeps its rows; the
// fan-out at width ≥ 2 builds its pool and rows for each call.
func TestZeroAllocBandedHotPath(t *testing.T) {
	r := rng.New(73)
	inst := buildDiffInstance(t, r, diffCase{n: 70, linkProb: 0.1, space: "unit"})
	ev := NewEvaluator(inst)
	p := randomDiffProfile(r, 70, 0.1)
	if _, err := ev.SocialCostBanded(p, 64); err != nil { // warm the arenas
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if _, err := ev.SocialCostBanded(p, 64); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("SocialCostBanded allocates %v per run, want 0", avg)
	}
}

// TestUnitSpaceSelfClassification pins the SelfClassified contract on
// UnitSpace against the scanning classifier, including a unit exactly
// at and just past the small-integer boundary.
func TestUnitSpaceSelfClassification(t *testing.T) {
	for _, unit := range []float64{1, 2, 0.37, metric.MaxSmallIntWeight, metric.MaxSmallIntWeight + 1, 1.5} {
		s, err := metric.UniformUnit(9, unit)
		if err != nil {
			t.Fatal(err)
		}
		declared := s.DistanceClass()
		scanned := metric.ClassifyFunc(s.N(), s.Distance)
		if declared != scanned {
			t.Errorf("unit %v: declared %+v, scanned %+v", unit, declared, scanned)
		}
		if got := metric.Classify(s); got != declared {
			t.Errorf("unit %v: Classify %+v, declared %+v", unit, got, declared)
		}
	}
	if _, err := metric.UniformUnit(1, 1); err == nil {
		t.Error("UniformUnit(1, 1): expected error")
	}
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := metric.UniformUnit(4, bad); err == nil {
			t.Errorf("UniformUnit(4, %v): expected error", bad)
		}
	}
}
