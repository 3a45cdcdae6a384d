package core

import (
	"fmt"
	"math"
	"math/bits"
)

// This file holds the streamed path of the row loop (settleRows in
// evaluate.go, and its fan-out twin in parallel.go) and the
// multi-source bitset BFS kernel behind it. A materialized all-pairs
// matrix is the O(n²) wall at internet scale — n=65536 is a 34 GB
// matrix. The streamed path keeps at most min(band, 64) source rows
// resident per worker, so social cost, the sampled estimators and the
// streamed per-peer evaluators run in O(n) memory per worker at any n.
// The social cost fold fans out across min(GOMAXPROCS, claims) workers,
// a claim being a chunk of min(band, 64) sources on uniform metrics and
// one source otherwise, and fewer when their rows together would pass
// streamRowBudget (512 MiB); at width 1 the caller's evaluator runs the
// loop itself. A fan-out's pool and rows live only for the call, and
// its per-source results are folded in list order.
//
// On uniform metrics (kernelBFS) the rows are fed by msbfsChunk, a
// word-parallel BFS over *sources*: where bfsUnitSSSP packs 64
// candidate arcs per word, msbfsChunk packs 64 concurrent sources per
// word — each vertex carries one uint64 mask whose bit s means "source
// s has reached me", and one wave sweep advances all ≤64 BFS trees at
// once over the shared CSR adjacency. Per source the reached level sets
// are exactly the single-source BFS level sets, and distances are
// assigned from the same hopDist left-fold replay table, so every row
// is bit-identical to bfsUnitSSSP — and hence to heap Dijkstra.
//
// Determinism conventions (shared with the rest of the core):
//   - rows are handed over in list order, or (on the fan-out) land in
//     per-source slots folded in list order, so the folds over 0..n-1
//     run the same left-fold as the slab path, at every band width and
//     every worker count;
//   - per-row values replay hopDist[h] (kernelBFS) or the kernel's own
//     fixpoint (other kernels), never a re-derived expression;
//   - therefore SocialCostBanded == SocialCost bit for bit, for any
//     band ≥ 1, any kernel, directed or undirected.

// msScratch is the reusable scratch of the streamed path: the
// per-vertex source masks and frontier lists of msbfsChunk plus the
// band row storage. Owned by an Evaluator, so steady-state banded
// evaluation allocates nothing.
type msScratch struct {
	front, next, reached []uint64
	frontier, wave       []int32
	bandBuf              []float64
	bandRows             [][]float64
}

// rows returns k band rows of n entries over the reused band buffer,
// sizing the per-vertex scratch for n peers as well. front, next and
// reached are all-zero only on first allocation; msbfsChunk re-zeroes
// what it used, preserving the all-zero invariant between calls.
func (st *msScratch) rows(k, n int) [][]float64 {
	if len(st.front) < n {
		st.front = make([]uint64, n)
		st.next = make([]uint64, n)
		st.reached = make([]uint64, n)
		st.frontier = make([]int32, 0, n)
		st.wave = make([]int32, 0, n)
	}
	if cap(st.bandBuf) < k*n {
		st.bandBuf = make([]float64, k*n)
	}
	if cap(st.bandRows) < k {
		st.bandRows = make([][]float64, k)
	}
	rows := st.bandRows[:k]
	for r := range rows {
		rows[r] = st.bandBuf[r*n : (r+1)*n]
	}
	return rows
}

// msbfsChunk runs the word-parallel multi-source unit-weight BFS for
// the ≤64 sources srcs over the prepared CSR adjacency, writing the
// full distance row of srcs[s] into rows[s]. fwd holds the strategy
// arcs; rev (consulted when undirected) is the maintained reverse
// index, the same arc set bfsUnitSSSP pre-ORs into its bitset rows.
// hopDist is the instance's IEEE left-fold replay table, so row values
// are bit-identical to the single-source kernels. st.front/next/reached
// must be all-zero on entry (rows + the re-zeroing on exit keep that
// invariant).
func msbfsChunk(rows [][]float64, srcs []int32, hopDist []float64, fwd, rev *csr, undirected bool, st *msScratch) {
	front, next, reached := st.front, st.next, st.reached
	inf := math.Inf(1)
	for s, src := range srcs {
		row := rows[s]
		for v := range row {
			row[v] = inf
		}
		row[src] = 0
	}
	frontier := st.frontier[:0]
	for s, src := range srcs {
		bit := uint64(1) << uint(s)
		if reached[src] == 0 {
			frontier = append(frontier, src)
		}
		front[src] |= bit
		reached[src] |= bit
	}
	wave := st.wave[:0]
	for hop := 1; len(frontier) > 0; hop++ {
		hd := hopDist[hop]
		wave = wave[:0]
		// Advance every source tree one level: each arc u→v carries the
		// whole 64-source mask in one OR, minus the sources that already
		// reached v.
		for _, u := range frontier {
			fu := front[u]
			for k := fwd.head[u]; k < fwd.head[u+1]; k++ {
				v := fwd.to[k]
				if nw := fu &^ reached[v]; nw != 0 {
					if next[v] == 0 {
						wave = append(wave, v)
					}
					next[v] |= nw
				}
			}
			if undirected {
				for k := rev.head[u]; k < rev.head[u+1]; k++ {
					v := rev.to[k]
					if nw := fu &^ reached[v]; nw != 0 {
						if next[v] == 0 {
							wave = append(wave, v)
						}
						next[v] |= nw
					}
				}
			}
		}
		// Commit the wave: clear the old frontier's masks, then assign the
		// hop-h distance to each newly reached (source, vertex) pair. The
		// clear runs first so a vertex in both waves keeps its new mask.
		for _, u := range frontier {
			front[u] = 0
		}
		for _, v := range wave {
			nw := next[v] &^ reached[v]
			next[v] = 0
			reached[v] |= nw
			front[v] = nw
			for m := nw; m != 0; m &= m - 1 {
				rows[bits.TrailingZeros64(m)][v] = hd
			}
		}
		frontier, wave = wave, frontier
	}
	// Restore the all-zero invariant for the next chunk: front and next
	// are already zero (cleared per wave), reached is not. The final
	// frontier is empty, so its masks were never set.
	for i := range reached {
		reached[i] = 0
	}
	st.frontier, st.wave = frontier[:0], wave[:0]
}

// SocialCostBanded computes SocialCost through the streamed path of
// settleRows, bit-identical to the slab path at every band width: the
// rows carry the same kernel-computed values and the fold runs in the
// same source order, so the float64 left-fold is the same sequence of
// additions. This is the social-cost entry point past the O(n²) wall.
// The fold runs on min(GOMAXPROCS, claims) workers, where a claim is a
// chunk of min(band, 64) sources on uniform metrics and one source
// otherwise, and on fewer when their rows together would pass
// streamRowBudget (512 MiB: 16 workers at n = 65536); each worker's
// per-peer costs land in slots that are summed in peer order, so the
// bits do not depend on the width. Each worker holds at most
// min(band, 64) rows, because the multi-source BFS fills 64 rows per
// sweep and a wider band would only cost memory: at n = 65536 a worker
// touches ~34 MB where the slab needs 34 GB. At width 2 or more the
// workers' rows live only for the call; at width 1 the evaluator keeps
// its own rows for the next call.
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
	return ev.streamedEval(p, i, -1, Strategy{}, p.OutDegree(i))
}

// DeviationEvalStreamed is DeviationEval without the bitset adjacency
// slab: peer i's enriched cost if it unilaterally switches to alt,
// identical bits, O(n) memory.
func (ev *Evaluator) DeviationEvalStreamed(p Profile, i int, alt Strategy) Eval {
	return ev.streamedEval(p, i, i, alt, alt.Count())
}

// streamedEval evaluates peer i, of out-degree degree, on the streamed
// path of settleRows with one source.
func (ev *Evaluator) streamedEval(p Profile, i, override int, alt Strategy, degree int) Eval {
	var e Eval
	src := [1]int32{int32(i)}
	ev.settleRows(p, override, alt, src[:], nil, 1, func(_ int32, d []float64) bool {
		e = ev.peerEvalFrom(d, i, degree)
		return true
	})
	return e
}
