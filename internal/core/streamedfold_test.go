package core

// Differential tests for the streamed fold (msbfs.go): the Eval of
// every source, folded from the multi-source BFS's hop-level table,
// must equal peerEvalFrom over the source's slab row, and the level
// table, expanded back into rows, must equal bfsUnitSSSP's rows — at
// non-integer and overflowing units, directed and undirected, under both
// cost models, at every band and pool width.

import (
	"math"
	"testing"

	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

// foldModels are the cost models the streamed fold is checked under.
var foldModels = []CostModel{StretchModel, DistanceModel}

// foldUnits are the uniform units the streamed fold is checked at: the
// integer unit, a non-integer one, a larger integer one, and one whose
// hop sums overflow to +Inf past 17 hops.
var foldUnits = []float64{1, 0.37, 3, 1e307}

// evalsIdentical reports whether two Evals carry the same bits.
func evalsIdentical(a, b Eval) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Unreachable == b.Unreachable && same(a.Cost.Link, b.Cost.Link) &&
		same(a.Cost.Term, b.Cost.Term) && same(a.FiniteTerm, b.FiniteTerm)
}

// costsIdentical reports whether two Costs carry the same bits.
func costsIdentical(a, b Cost) bool {
	return math.Float64bits(a.Link) == math.Float64bits(b.Link) && math.Float64bits(a.Term) == math.Float64bits(b.Term)
}

// expandLevels settles the sources of part by msbfsChunk on ev's
// prepared CSR and turns its level table back into distance rows:
// hopDist[h] where source s reached v at hop h, +Inf where it did not.
// It re-zeroes reached, as foldLevels does, so ev's scratch stays
// ready for the next chunk.
func expandLevels(ev *Evaluator, part []int32) [][]float64 {
	inst, st := ev.inst, &ev.ms
	k, n := len(part), inst.N()
	st.ensure(k, n)
	msbfsChunk(part, len(inst.hopTerm), &ev.g.csr, st)
	rows := make([][]float64, k)
	for s := range rows {
		rows[s] = make([]float64, n)
		for v := range rows[s] {
			rows[s][v] = math.Inf(1)
			if st.reached[v]>>uint(s)&1 != 0 {
				rows[s][v] = inst.hopDist[st.level[v*k+s]]
			}
		}
	}
	for v := range st.reached[:n] {
		st.reached[v] = 0
	}
	return rows
}

// levelRows prepares ev's CSR for p, peer override playing alt, as the
// streamed path does, and returns the expanded level rows of srcs in
// list order, settled in chunks of min(band, 64) sources.
func levelRows(ev *Evaluator, p Profile, override int, alt Strategy, srcs []int32, band int) [][]float64 {
	ev.prepareWith(p, override, alt, false)
	var rows [][]float64
	for lo := 0; lo < len(srcs); lo += min(band, 64) {
		rows = append(rows, expandLevels(ev, srcs[lo:min(lo+band, lo+64, len(srcs))])...)
	}
	return rows
}

// slabReference returns every source's slab row under p, peer override
// playing alt, and the Eval peerEvalFrom folds from it.
func slabReference(inst *Instance, p Profile, override int, alt Strategy) ([][]float64, []Eval) {
	ref := NewEvaluator(inst)
	ref.prepare(p, override, alt)
	n := inst.N()
	rows, evals := make([][]float64, n), make([]Eval, n)
	for s := range rows {
		rows[s] = append([]float64(nil), ref.ssspFrom(s, 0)...)
		evals[s] = ref.peerEvalFrom(rows[s], s, strategyOf(p, s, override, alt).Count(), nil)
	}
	return rows, evals
}

// checkStreamedFold holds the streamed path at band to the slab: on ev
// and on pools of widths 1–3, every source's Eval is identical to
// peerEvalFrom over its slab row, visited once (in list order on ev),
// and the expanded level rows equal the slab rows.
func checkStreamedFold(t *testing.T, ev *Evaluator, p Profile, override int, alt Strategy, band int, rows [][]float64, want []Eval) {
	t.Helper()
	inst := ev.inst
	srcs := inst.peers
	seen := 0
	ev.settleEvals(p, override, alt, srcs, band, func(src int32, e Eval) bool {
		if int(src) != seen {
			t.Fatalf("band %d: visited source %d, want %d (list order)", band, src, seen)
		}
		if !evalsIdentical(e, want[src]) {
			t.Fatalf("override %d band %d source %d: streamed %+v, slab %+v", override, band, src, e, want[src])
		}
		seen++
		return true
	})
	if seen != len(srcs) {
		t.Fatalf("band %d: %d visits, want %d", band, seen, len(srcs))
	}
	for s, row := range levelRows(ev, p, override, alt, srcs, band) {
		if j, ok := distsIdentical(row, rows[s]); !ok {
			t.Fatalf("override %d band %d source %d: level row d[%d]=%v, bfsUnitSSSP %v", override, band, s, j, row[j], rows[s][j])
		}
	}
	for workers := 1; workers <= 3; workers++ {
		got := make([]Eval, len(srcs))
		visits := make([]int, len(srcs))
		NewPool(inst, workers).settleEvals(p, override, alt, srcs, band, func(i int, e Eval) bool {
			got[i] = e
			visits[i]++
			return true
		})
		for i := range srcs {
			if visits[i] != 1 || !evalsIdentical(got[i], want[i]) {
				t.Fatalf("override %d band %d pool width %d source %d: %d visits, %+v, slab %+v",
					override, band, workers, i, visits[i], got[i], want[i])
			}
		}
	}
}

// connectProfile adds the ring i → i+1 to every strategy of p, so every
// peer reaches every other.
func connectProfile(p *Profile) {
	for i, n := 0, p.N(); i < n; i++ {
		_ = p.AddLink(i, (i+1)%n)
	}
}

// TestStreamedFoldMatchesSlab folds every source's Eval on the streamed
// path against peerEvalFrom over the slab row, across units, directed
// and undirected games, disconnected and connected profiles, both cost
// models, bands straddling the 64-source chunk and pool widths 1–3,
// with a peer overriding its strategy and without.
func TestStreamedFoldMatchesSlab(t *testing.T) {
	const n = 130
	r := rng.New(89)
	for _, unit := range foldUnits {
		space, err := metric.UniformUnit(n, unit)
		if err != nil {
			t.Fatal(err)
		}
		for _, undirected := range []bool{false, true} {
			for _, model := range foldModels {
				opts := []Option{WithModel(model)}
				if undirected {
					opts = append(opts, WithUndirected())
				}
				inst, err := NewInstance(space, 2.5, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if inst.Kernel() != "bfs" {
					t.Fatalf("unit %v: kernel %q, want bfs", unit, inst.Kernel())
				}
				for _, connected := range []bool{false, true} {
					p := randomDiffProfile(r, n, 0.012)
					if connected {
						connectProfile(&p)
					}
					ev := NewEvaluator(inst)
					i := r.Intn(n)
					for _, ov := range []struct {
						override int
						alt      Strategy
					}{{override: -1}, {override: i, alt: randomStrategy(r, n, i, 0.05)}} {
						rows, want := slabReference(inst, p, ov.override, ov.alt)
						for _, band := range []int{1, 7, 63, 64, 65, n} {
							checkStreamedFold(t, ev, p, ov.override, ov.alt, band, rows, want)
						}
					}
				}
			}
		}
	}
}

// FuzzStreamedFold checks the streamed fold on a fuzzed uniform game:
// size picks n ≤ 200; shape the unit, directedness, the model and
// whether the space is implicit; density the link density; band the
// band; seed the profile, an override peer and its alt strategy. Every
// Eval and expanded level row must match the slab, at pool widths 1–3,
// and SocialCostBanded must equal SocialCost bit for bit.
func FuzzStreamedFold(f *testing.F) {
	f.Fuzz(func(t *testing.T, size, shape, density, band uint8, seed uint64) {
		n := 2 + int(size)%199
		unit := foldUnits[int(shape)%len(foldUnits)]
		model := foldModels[int(shape/4)%len(foldModels)]
		opts := []Option{WithModel(model)}
		if shape&0x10 != 0 {
			opts = append(opts, WithUndirected())
		}
		var space metric.Space
		var err error
		if shape&0x20 != 0 {
			space, err = metric.UniformUnit(n, unit)
		} else if space, err = metric.Uniform(n); err == nil && unit != 1 {
			space, err = metric.Scale(space, unit)
		}
		if err != nil {
			t.Fatal(err)
		}
		inst, err := NewInstance(space, 2.5, opts...)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(seed)
		q := float64(density) / 255 * 0.4
		p := randomDiffProfile(r, n, q)
		i := r.Intn(n)
		alt := randomStrategy(r, n, i, q)
		b := 1 + int(band)%(n+1)
		ev := NewEvaluator(inst)
		for _, override := range []int{-1, i} {
			rows, want := slabReference(inst, p, override, alt)
			checkStreamedFold(t, ev, p, override, alt, b, rows, want)
		}
		if got, want := ev.DeviationEvalStreamed(p, i, alt), NewEvaluator(inst).DeviationEval(p, i, alt); !evalsIdentical(got, want) {
			t.Fatalf("DeviationEvalStreamed(%d): %+v, DeviationEval %+v", i, got, want)
		}
		want := NewEvaluator(inst).SocialCost(p)
		for _, w := range fanOutWidths {
			atWidth(w, func() {
				got, err := ev.SocialCostBanded(p, b)
				if err != nil {
					t.Fatal(err)
				}
				if !costsIdentical(got, want) {
					t.Fatalf("width %d band %d: banded %+v, slab %+v", w, b, got, want)
				}
			})
		}
	})
}
