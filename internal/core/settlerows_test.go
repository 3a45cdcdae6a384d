package core

// Contract tests for the row loop (Evaluator.settleRows), its Eval twin
// (Evaluator.settleEvals, on both paths), their pool twins (at widths
// 1–3, and behind the rest-row fill), and the banded fold's
// resident-memory bound. The
// row loop takes an explicit source list on every path, so a "nil or
// empty means every peer" slip must fail here, not only in a benchmark.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

// rowCases are the row-loop regimes: each kernel, directed and
// undirected, at a size whose sources straddle the 64-source word.
func rowCases() []diffCase {
	var out []diffCase
	for _, space := range []string{"points", "int", "unit"} {
		for _, undirected := range []bool{false, true} {
			name := space
			if undirected {
				name += "-undirected"
			}
			out = append(out, diffCase{name: name, n: 70, linkProb: 0.05, undirected: undirected, space: space})
		}
	}
	return out
}

// scrambledSources returns an unordered, non-contiguous source list
// with more than 64 entries on both sides of source 64: a permutation
// of the peers with three of them left out.
func scrambledSources(r *rng.RNG, n int) []int32 {
	var srcs []int32
	for _, s := range r.Perm(n) {
		if s != 2 && s != 40 && s != 66 {
			srcs = append(srcs, int32(s))
		}
	}
	return srcs
}

// TestSettleRowsContract pins the row loop and its Eval twin: an empty
// list visits nothing, a scrambled list is visited in list order, and a
// false from visit stops the loop at once. settleRows hands every
// source's row, which equals the single-source slab reference with the
// override applied; settleEvals hands, at every band, every source's
// Eval, which equals peerEvalFrom over that row, and on the streamed
// path the expanded level rows equal the reference rows too. The pool
// twins are held to the same contract on pools of 1–3 workers, where
// list order gives way to one visit per listed source.
func TestSettleRowsContract(t *testing.T) {
	r := rng.New(79)
	for _, c := range rowCases() {
		t.Run(c.name, func(t *testing.T) {
			inst := buildDiffInstance(t, r, c)
			if want := map[string]string{"points": "heap", "int": "dial", "unit": "bfs"}[c.space]; inst.Kernel() != want {
				t.Fatalf("kernel %q, want %q", inst.Kernel(), want)
			}
			ev, ref := NewEvaluator(inst), NewEvaluator(inst)
			p := randomDiffProfile(r, c.n, c.linkProb)
			srcs := scrambledSources(r, c.n)
			for _, ov := range []struct {
				override int
				alt      Strategy
			}{
				{override: -1},
				{override: 64, alt: randomStrategy(r, c.n, 64, 0.2)},
				{override: 5}, // empty strategy: peer 5 drops its links
			} {
				want := make(map[int32][]float64, len(srcs))
				wantEval := make(map[int32]Eval, len(srcs))
				for _, src := range srcs {
					want[src] = append([]float64(nil), ref.sssp(p, int(src), ov.override, ov.alt)...)
					wantEval[src] = ref.peerEvalFrom(want[src], int(src), strategyOf(p, int(src), ov.override, ov.alt).Count(), nil)
				}
				what := fmt.Sprintf("override %d rows", ov.override)
				checkLoop(t, what, srcs, func(list []int32, visit func(int32) bool) {
					ev.settleRows(p, ov.override, ov.alt, list, nil, func(src int32, d []float64) bool {
						if j, ok := distsIdentical(d, want[src]); !ok {
							t.Fatalf("%s source %d: d[%d]=%v, reference %v", what, src, j, d[j], want[src][j])
						}
						return visit(src)
					})
				})
				for workers := 1; workers <= 3; workers++ {
					pl := NewPool(inst, workers)
					checkPoolLoop(t, what, workers, srcs, func(list []int32, visit func(int, bool) bool) {
						pl.settleRows(p, ov.override, ov.alt, list, nil, func(_ *Evaluator, i int, d []float64) bool {
							_, same := distsIdentical(d, want[list[i]])
							return visit(i, same)
						})
					})
				}
				for _, band := range []int{0, 1, 63, 64, 65, c.n} {
					what := fmt.Sprintf("override %d band %d Evals", ov.override, band)
					checkLoop(t, what, srcs, func(list []int32, visit func(int32) bool) {
						ev.settleEvals(p, ov.override, ov.alt, list, band, func(src int32, e Eval) bool {
							if e != wantEval[src] {
								t.Fatalf("%s source %d: %+v, reference %+v", what, src, e, wantEval[src])
							}
							return visit(src)
						})
					})
					for workers := 1; workers <= 3; workers++ {
						pl := NewPool(inst, workers)
						checkPoolLoop(t, what, workers, srcs, func(list []int32, visit func(int, bool) bool) {
							pl.settleEvals(p, ov.override, ov.alt, list, band, func(i int, e Eval) bool {
								return visit(i, e == wantEval[list[i]])
							})
						})
					}
					if inst.msbfsBand(band) {
						for k, row := range levelRows(ev, p, ov.override, ov.alt, srcs, band) {
							if j, ok := distsIdentical(row, want[srcs[k]]); !ok {
								t.Fatalf("%s source %d: level row d[%d]=%v, reference %v", what, srcs[k], j, row[j], want[srcs[k]][j])
							}
						}
					}
				}
			}
		})
	}
}

// checkLoop pins one of the evaluator's loops, run over a source list
// with a visit that gets only the source (run checks each source's
// output itself): an empty list visits nothing, srcs is visited in list
// order, and a false from visit stops the loop at once.
func checkLoop(t *testing.T, what string, srcs []int32, run func(list []int32, visit func(src int32) bool)) {
	t.Helper()
	for _, empty := range [][]int32{nil, {}} {
		run(empty, func(src int32) bool {
			t.Fatalf("%s: empty list visited source %d", what, src)
			return true
		})
	}
	seen := 0
	run(srcs, func(src int32) bool {
		if src != srcs[seen] {
			t.Fatalf("%s: visit %d got source %d, want %d (list order)", what, seen, src, srcs[seen])
		}
		seen++
		return true
	})
	if seen != len(srcs) {
		t.Fatalf("%s: %d visits, want %d", what, seen, len(srcs))
	}
	for _, k := range []int{1, 40, 65} {
		visits := 0
		run(srcs, func(int32) bool {
			visits++
			return visits < k
		})
		if visits != k {
			t.Fatalf("%s: stop after %d visits ran %d", what, k, visits)
		}
	}
}

// checkPoolLoop pins one of the pool's loops on a pool of w workers,
// run over a source list with a visit that gets the list index and
// whether that source's output matched its reference: an empty list
// visits nothing, every listed source is visited exactly once and
// matches, and a false from visit stops the claims. Every visit after
// the k-th returns false too and stops its own worker, so a stop
// requested at visit k ends within k + w − 1 visits.
func checkPoolLoop(t *testing.T, what string, w int, srcs []int32, run func(list []int32, visit func(i int, same bool) bool)) {
	t.Helper()
	for _, empty := range [][]int32{nil, {}} {
		var visits atomic.Int32
		run(empty, func(int, bool) bool {
			visits.Add(1)
			return true
		})
		if v := visits.Load(); v != 0 {
			t.Fatalf("%s pool width %d: empty list made %d visits", what, w, v)
		}
	}
	counts := make([]atomic.Int32, len(srcs))
	same := make([]bool, len(srcs))
	run(srcs, func(i int, ok bool) bool {
		counts[i].Add(1)
		same[i] = ok
		return true
	})
	for i, src := range srcs {
		if c := counts[i].Load(); c != 1 || !same[i] {
			t.Fatalf("%s pool width %d: source %d visited %d times, matches reference %v", what, w, src, c, same[i])
		}
	}
	for _, k := range []int32{1, 40, 65} {
		var visits atomic.Int32
		run(srcs, func(int, bool) bool {
			return visits.Add(1) < k
		})
		if v := visits.Load(); v < k || v > k+int32(w)-1 {
			t.Fatalf("%s pool width %d: stop after %d visits ran %d", what, w, k, v)
		}
	}
}

// TestFillRestRowsWritesOnlyListedSlots pins the shared rest-row fill
// behind both batch paths, sequentially and on a width-2 pool: listed
// sources get their G−skip row, every other slot keeps its sentinel.
// Undirected fills are seeded at skip's direct distances, as the
// undirected batch seeds them, and must match a heap twin's seeded
// Dijkstra bit for bit.
func TestFillRestRowsWritesOnlyListedSlots(t *testing.T) {
	const sentinel = -7.5
	r := rng.New(83)
	for _, c := range rowCases() {
		t.Run(c.name, func(t *testing.T) {
			inst, heap := twinInstances(t, r, c)
			p := randomDiffProfile(r, c.n, c.linkProb)
			const skip = 3
			var seed []float64
			if c.undirected {
				seed = inst.distRow(skip)
			}
			ref := NewEvaluator(heap)
			srcs := scrambledSources(r, c.n)[:20]
			for _, workers := range []int{0, 2} {
				ev := NewEvaluator(inst)
				if workers > 0 {
					ev.AttachPool(NewPool(inst, workers))
				}
				for _, list := range [][]int32{nil, srcs} {
					dst := make([][]float64, c.n)
					for k := range dst {
						if k == skip {
							continue
						}
						dst[k] = make([]float64, c.n)
						for j := range dst[k] {
							dst[k][j] = sentinel
						}
					}
					ev.fillRestRows(p, skip, list, seed, dst)
					listed := map[int]bool{}
					for _, k := range list {
						listed[int(k)] = true
					}
					for k, row := range dst {
						if k == skip {
							if row != nil {
								t.Fatalf("workers %d: skip slot written", workers)
							}
							continue
						}
						if !listed[k] {
							for j, v := range row {
								if v != sentinel {
									t.Fatalf("workers %d: unlisted slot %d written at %d (%v)", workers, k, j, v)
								}
							}
							continue
						}
						ref.prepare(p, skip, Strategy{})
						want := ref.ssspFrom(k, seedOf(seed, int32(k)))
						if j, ok := distsIdentical(row, want); !ok {
							t.Fatalf("workers %d row %d: d[%d]=%v, reference %v", workers, k, j, row[j], want[j])
						}
					}
				}
			}
		})
	}
}

// TestSocialCostBandedWideBandMemory: the multi-source BFS settles at
// most 64 sources per sweep, so a wider band keeps only 64 sources' hop
// levels resident per worker. The first fold on a fresh evaluator for
// the n = 4096 star at band n allocates a few MiB, not band·n levels
// (64 MiB), and still reproduces the closed form. The fold fans out
// across min(GOMAXPROCS, claims) workers with about 1.3 MiB each, so
// the 8 MiB bound is checked at GOMAXPROCS 1 and 2, set here; at the
// machine's own width the band-n fold must allocate no more than the
// band-64 fold, up to 64 KiB, which holds at any core count.
func TestSocialCostBandedWideBandMemory(t *testing.T) {
	const n = 4096
	space, err := metric.UniformImplicit(n)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(space, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := StarProfile(n)
	if err != nil {
		t.Fatal(err)
	}
	// firstFold returns the bytes the first fold at band allocates on a
	// fresh evaluator.
	firstFold := func(band int) uint64 {
		ev := NewEvaluator(inst)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := ev.SocialCostBanded(p, band)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if want := StarSocialCost(n, 2); got != want {
			t.Errorf("SocialCostBanded(p, %d) = %+v, closed form %+v", band, got, want)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, w := range []int{1, 2} {
		atWidth(w, func() {
			alloc := firstFold(n)
			t.Logf("GOMAXPROCS %d: first band-%d fold allocated %.2f MiB", w, n, float64(alloc)/(1<<20))
			if alloc >= 8<<20 {
				t.Errorf("GOMAXPROCS %d: SocialCostBanded(p, %d) allocated %.2f MiB, want < 8 MiB", w, n, float64(alloc)/(1<<20))
			}
		})
	}
	if wide, narrow := firstFold(n), firstFold(64); wide > narrow+64<<10 {
		t.Errorf("GOMAXPROCS %d: band %d allocated %d B, band 64 %d B; want at most 64 KiB more",
			runtime.GOMAXPROCS(0), n, wide, narrow)
	}
}
