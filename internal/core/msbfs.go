package core

import (
	"fmt"
	"math"
	"math/bits"
)

// This file holds the streamed path of the Eval loop (settleEvals in
// evaluate.go, and its fan-out twin in parallel.go) and the
// multi-source bitset BFS kernel behind it. A materialized all-pairs
// matrix is the O(n²) wall at internet scale — n=65536 is a 34 GB
// matrix. The streamed path never holds a distance row: it hands each
// source's Eval, folded from a hop-level table of min(band, 64) sources
// per worker, so social cost, the sampled estimators and the streamed
// per-peer evaluators run in O(n) memory per worker at any n. The
// social cost fold fans out across min(GOMAXPROCS, claims) workers, a
// claim being a chunk of min(band, 64) sources on uniform metrics and
// one source otherwise, and fewer when their level tables together
// would pass streamRowBudget (512 MiB); at width 1 the caller's
// evaluator runs the loop itself. A fan-out's pool and tables live only
// for the call, and its per-source results are folded in list order.
//
// On uniform metrics (kernelBFS) the Evals are fed by msbfsChunk, a
// word-parallel BFS over *sources*: where bfsUnitSSSP packs 64
// candidate arcs per word, msbfsChunk packs 64 concurrent sources per
// word — each vertex carries one uint64 mask whose bit s means "source
// s has reached me", and one wave sweep advances all ≤64 BFS trees at
// once over the prepared graph's one arc list. Per source the reached
// level sets are exactly the single-source BFS level sets. msbfsChunk
// records the hop count of each reached (vertex, source) pair in a
// vertex-major level table, and foldLevels then sums every source's
// terms in one pass over the vertices, looking each up in the
// instance's hopTerm table: the model's term of hopDist[h], the
// left-fold replay value bfsUnitSSSP writes. Each source thus runs the
// same j-ordered left fold that peerEvalFrom, the one rule that sums a
// distance row into an Eval, runs over the slab row, so every Eval is
// bit-identical to it — and hence to heap Dijkstra. The fold sums its
// terms itself rather than through peerEvalFrom because its input is
// hop levels, not rows: a row per source is what it exists to avoid.
//
// Determinism conventions (shared with the rest of the core):
//   - Evals are handed over in list order, or (on the fan-out) land in
//     per-source slots folded in list order, so the social cost fold
//     runs the same left-fold as the slab path, at every band width and
//     every worker count;
//   - per-pair values replay hopDist[h] (kernelBFS) or the kernel's own
//     fixpoint (other kernels), never a re-derived expression;
//   - therefore SocialCostBanded == SocialCost bit for bit, for any
//     band ≥ 1, any kernel, directed or undirected.

// msScratch is the reusable scratch of the streamed path: the
// per-vertex source masks and frontier lists of msbfsChunk, its level
// table, and the per-source accumulators of foldLevels. Owned by an
// Evaluator, so steady-state banded evaluation allocates nothing.
type msScratch struct {
	front, next, reached []uint64
	frontier, wave       []int32
	// level[v·k+s] is the hop count at which source s of the current
	// k-source chunk reached vertex v, valid only where bit s of
	// reached[v] is set: the table is never cleared.
	level []uint32
	// sum and miss are foldLevels' per-source accumulators.
	sum  [64]float64
	miss [64]int
}

// ensure sizes the scratch for chunks of k sources over n peers. front,
// next and reached are all-zero only on first allocation; msbfsChunk
// and foldLevels re-zero what they used, preserving the all-zero
// invariant between chunks.
func (st *msScratch) ensure(k, n int) {
	if len(st.front) < n {
		st.front = make([]uint64, n)
		st.next = make([]uint64, n)
		st.reached = make([]uint64, n)
		st.frontier = make([]int32, 0, n)
		st.wave = make([]int32, 0, n)
	}
	if len(st.level) < k*n {
		st.level = make([]uint32, k*n)
	}
}

// msbfsChunk runs the word-parallel multi-source unit-weight BFS for
// the ≤64 sources srcs over the arc list adj, the prepared graph (in
// undirected games its rows carry the reverse traversals too, the arc
// set bfsUnitSSSP reads from its bitset rows), setting bit s of
// st.reached[v] and st.level[v·k+s] (k = len(srcs)) for every vertex v
// that source srcs[s] reaches within fewer than hops hops. hops is
// len(hopTerm), the number of hop counts whose left-fold distance is
// finite: a vertex first reached at hop hops or later lies at distance
// +Inf, exactly like one never reached, so it is left unreached.
// st.front/next/reached must be all-zero on entry; front and next are
// all-zero again on return, and reached is left for foldLevels to read
// and re-zero.
func msbfsChunk(srcs []int32, hops int, adj *csr, st *msScratch) {
	k := len(srcs)
	front, next, reached, level := st.front, st.next, st.reached, st.level
	frontier := st.frontier[:0]
	for s, src := range srcs {
		bit := uint64(1) << uint(s)
		if reached[src] == 0 {
			frontier = append(frontier, src)
		}
		front[src] |= bit
		reached[src] |= bit
		level[int(src)*k+s] = 0
	}
	wave := st.wave[:0]
	head, to := adj.head, adj.to
	for hop := 1; len(frontier) > 0 && hop < hops; hop++ {
		wave = wave[:0]
		// Advance every source tree one level: each arc u→v carries the
		// whole 64-source mask in one OR, minus the sources that already
		// reached v.
		for _, u := range frontier {
			fu := front[u]
			for a := head[u]; a < head[u+1]; a++ {
				v := to[a]
				if nw := fu &^ reached[v]; nw != 0 {
					if next[v] == 0 {
						wave = append(wave, v)
					}
					next[v] |= nw
				}
			}
		}
		// Commit the wave: clear the old frontier's masks, then record
		// hop h for each newly reached (vertex, source) pair, in the
		// vertex's own k-entry stretch of the table. The clear runs first
		// so a vertex in both waves keeps its new mask.
		for _, u := range frontier {
			front[u] = 0
		}
		h := uint32(hop)
		for _, v := range wave {
			nw := next[v]
			next[v] = 0
			reached[v] |= nw
			front[v] = nw
			lv := level[int(v)*k : int(v)*k+k]
			for m := nw; m != 0; m &= m - 1 {
				lv[bits.TrailingZeros64(m)] = h
			}
		}
		frontier, wave = wave, frontier
	}
	// Restore front's all-zero invariant: the final frontier is empty
	// unless the hop cap stopped the sweep, and next is cleared per wave.
	for _, u := range frontier {
		front[u] = 0
	}
	st.frontier, st.wave = frontier[:0], wave[:0]
}

// foldLevels sums the terms of the k sources msbfsChunk just settled
// over n peers in one pass over v = 0…n−1, reading reached[v] before
// re-zeroing it. Each source s adds terms[h] for a vertex it reached at
// hop h (terms[0] = 0 for its own column), in v order — the left fold
// peerEvalFrom runs over the slab row. Every reached term is finite, so
// st.sum[s] is the FiniteTerm accumulator and st.miss[s] counts the
// vertices s missed, whose term is +Inf: boundedEval's rule.
func (st *msScratch) foldLevels(k, n int, terms []float64) {
	sum, misses := st.sum[:k], st.miss[:k]
	for s := range sum {
		sum[s], misses[s] = 0, 0
	}
	full := ^uint64(0) >> uint(64-k)
	reached, level := st.reached[:n], st.level
	for v, m := range reached {
		reached[v] = 0
		lv := level[v*k : v*k+k]
		if m == full {
			sum := sum[:len(lv)]
			for s, h := range lv {
				sum[s] += terms[h]
			}
			continue
		}
		for s, h := range lv {
			if m>>uint(s)&1 != 0 {
				sum[s] += terms[h]
			} else {
				misses[s]++
			}
		}
	}
}

// foldChunk is the chunk body of the streamed path, shared by both Eval
// loops: it settles the sources of part (at most 64) by msbfsChunk over
// ev's prepared graph, folds their Evals by foldLevels on ev's reused
// scratch, and hands visit each source's position in part and its Eval,
// in order. Each Eval == peerEvalFrom over the source's slab row (the
// Term rule below is boundedEval's); a source's degree is its link
// count in the graph (owned). It reports false as soon as visit does.
func (ev *Evaluator) foldChunk(part []int32, visit func(k int, e Eval) bool) bool {
	inst, st := ev.inst, &ev.ms
	k, n := len(part), inst.N()
	st.ensure(k, n)
	msbfsChunk(part, len(inst.hopTerm), &ev.g.csr, st)
	st.foldLevels(k, n, inst.hopTerm)
	for s, src := range part {
		e := Eval{
			Cost:        Cost{Link: inst.alpha * float64(ev.g.owned[src]), Term: st.sum[s]},
			Unreachable: st.miss[s],
			FiniteTerm:  st.sum[s],
		}
		if e.Unreachable > 0 {
			e.Cost.Term = math.Inf(1)
		}
		if !visit(s, e) {
			return false
		}
	}
	return true
}

// SocialCostBanded computes SocialCost through the streamed path of
// settleEvals, bit-identical to the slab path at every band width: each
// source's Eval is folded from the same kernel-computed distances in
// the same j order, and the Evals are summed in the same source order,
// so the float64 left-fold is the same sequence of additions. This is
// the social-cost entry point past the O(n²) wall. The fold runs on
// min(GOMAXPROCS, claims) workers, where a claim is a chunk of
// min(band, 64) sources on uniform metrics and one source otherwise,
// and on fewer when their level tables together would pass
// streamRowBudget (512 MiB: 32 workers at n = 65536); each worker's
// per-peer costs land in slots that are summed in peer order, so the
// bits do not depend on the width. Each worker holds at most min(band,
// 64) sources' hop levels, 4 bytes per (source, peer) pair, because the
// multi-source BFS settles 64 sources per sweep and a wider band would
// only cost memory: at n = 65536 a worker's level table is 16 MiB where
// the slab needs 34 GB. At width 2 or more the workers' tables live
// only for the call; at width 1 the evaluator keeps its own for the
// next call.
func (ev *Evaluator) SocialCostBanded(p Profile, band int) (Cost, error) {
	if band < 1 {
		return Cost{}, fmt.Errorf("core: band width %d, want ≥ 1", band)
	}
	return ev.socialCost(p, band), nil
}

// PeerEvalStreamed is PeerEval without the O(n·⌈n/64⌉)-word bitset
// adjacency slab: identical bits, O(n) memory, the per-peer evaluation
// primitive for best-response steps at internet scale.
func (ev *Evaluator) PeerEvalStreamed(p Profile, i int) Eval {
	return ev.streamedEval(p, i, -1, Strategy{})
}

// DeviationEvalStreamed is DeviationEval without the bitset adjacency
// slab: peer i's enriched cost if it unilaterally switches to alt,
// identical bits, O(n) memory.
func (ev *Evaluator) DeviationEvalStreamed(p Profile, i int, alt Strategy) Eval {
	return ev.streamedEval(p, i, i, alt)
}

// streamedEval evaluates peer i on the streamed path of settleEvals
// with one source, peer override playing alt.
func (ev *Evaluator) streamedEval(p Profile, i, override int, alt Strategy) Eval {
	var e Eval
	src := [1]int32{int32(i)}
	ev.settleEvals(p, override, alt, src[:], 1, func(_ int32, got Eval) bool {
		e = got
		return true
	})
	return e
}
