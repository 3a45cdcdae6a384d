package core

import (
	"math"
	"math/bits"
)

// This file holds the metric-specialized SSSP kernel family. Every
// kernel computes the exact same distances — bit for bit — as the
// indexed-heap Dijkstra in evaluate.go; they differ only in how much
// hardware they waste getting there. Dispatch is decided once per
// Instance (see classifyKernel): the metric class and the congestion
// setting are construction-time constants, so the per-call dispatch is
// a single switch on a cached tag.
//
//   - kernelBFS: uniform metrics (every direct distance equals one unit
//     u, γ = 0). Every traversal arc then weighs exactly u, so the
//     overlay distance is a pure function of hop count and SSSP is a
//     unit-weight BFS. The frontier is swept word-parallel over bitset
//     adjacency rows: one 64-bit OR advances 64 candidate arcs at once,
//     so an n-source all-pairs pass costs O(n²·⌈n/64⌉) word ops instead
//     of n heap Dijkstras. Distances are reconstructed from a hop-count
//     table that replays the heap's left-fold IEEE addition (hopDist[h]
//     = hopDist[h-1] + u), which is exactly the value Dijkstra assigns
//     a vertex settled at hop h — all shortest paths to it have h arcs
//     and repeated addition of a constant is deterministic — so the BFS
//     is bit-identical to the heap even for non-integer units.
//
//   - kernelDial: small-integer metrics (every distance a positive
//     integer ≤ metric.MaxSmallIntWeight, γ = 0). All path sums are
//     then exact small integers in float64, so every settling order
//     reaches the identical bits and a Dial bucket queue (circular
//     array of span+1 buckets, O(1) push/pop, no sift traffic) replaces
//     the binary heap.
//
//   - kernelHeap: everything else, including every γ > 0 regime (the
//     congestion scale factors destroy both structures).
//
// Every kernel walks one arc list, the graph that graph.build makes of
// the profile (graph.go): each row holds a peer's own links and, in
// undirected games, the reverse traversals of the links others own to
// it, at their congestion-scaled weights. The bitset BFS reads the same
// arcs as bitset rows, built by prepareBFS.
//
// Evaluator.ssspFrom is the only caller of these kernels. Rows reach
// their users through the row loop, Evaluator.settleRows (or its pool
// twin), which runs ssspFrom per source; DynEval settles its
// construction matrix through the same loop. Its Eval twin,
// settleEvals, folds those rows by peerEvalFrom, except at band ≥ 1 on
// kernelBFS instances, where the multi-source BFS of msbfs.go settles
// 64 sources per sweep and folds their Evals from hop levels, with no
// row at all.

// kernelKind tags the SSSP kernel an instance dispatches to.
type kernelKind uint8

const (
	kernelHeap kernelKind = iota
	kernelBFS
	kernelDial
)

// String names the kernel as reported by Instance.Kernel.
func (k kernelKind) String() string {
	switch k {
	case kernelBFS:
		return "bfs"
	case kernelDial:
		return "dial"
	default:
		return "heap"
	}
}

// bfsWords returns the bitset row width (in 64-bit words) for n peers.
func bfsWords(n int) int { return (n + 63) / 64 }

// bfsUnitSSSP runs the word-parallel unit-weight BFS from src and
// writes distances into d (len n). adj is the combined traversal
// adjacency as n bitset rows of w words each — bit v of row u set iff
// the arc u→v is traversable (for undirected instances the reverse
// arcs are pre-ORed into the rows, which is valid because symmetry
// makes every traversal arc weigh the same unit). hopDist[h] must hold
// the IEEE left-fold of h unit addends, with len(hopDist) ≥ n+1.
// front, next and visited are caller-owned scratch of w words.
func bfsUnitSSSP(d []float64, adj []uint64, w, src int, hopDist []float64, front, next, visited []uint64) {
	for i := range d {
		d[i] = math.Inf(1)
	}
	d[src] = 0
	for i := 0; i < w; i++ {
		front[i] = 0
		visited[i] = 0
	}
	front[src>>6] = 1 << uint(src&63)
	visited[src>>6] = front[src>>6]
	for hop := 1; ; hop++ {
		for i := 0; i < w; i++ {
			next[i] = 0
		}
		// Union the adjacency rows of every frontier vertex: each word OR
		// advances up to 64 arcs.
		for wi := 0; wi < w; wi++ {
			fw := front[wi]
			base := wi << 6
			for fw != 0 {
				u := base + bits.TrailingZeros64(fw)
				fw &= fw - 1
				row := adj[u*w : u*w+w]
				for k := range row {
					next[k] |= row[k]
				}
			}
		}
		// Strip already-settled vertices, assign the hop-h distance to the
		// fresh ones, and stop when the wave dies out.
		hd := hopDist[hop]
		any := false
		for wi := 0; wi < w; wi++ {
			nw := next[wi] &^ visited[wi]
			next[wi] = nw
			if nw == 0 {
				continue
			}
			any = true
			visited[wi] |= nw
			base := wi << 6
			for nw != 0 {
				d[base+bits.TrailingZeros64(nw)] = hd
				nw &= nw - 1
			}
		}
		if !any {
			return
		}
		front, next = next, front
	}
}

// dialQueue is the reusable bucket storage of the Dial kernel: one
// slice of pending vertices per distance residue modulo span+1. Buckets
// are drained back to length zero by every run, so reuse needs no
// clearing beyond the slice header reset in ensure.
type dialQueue struct {
	buckets [][]int32
}

// ensure sizes the queue for a weight span (bucket count span+1),
// keeping per-bucket capacity across runs.
func (q *dialQueue) ensure(span int) {
	if need := span + 1; len(q.buckets) < need {
		old := q.buckets
		q.buckets = make([][]int32, need)
		copy(q.buckets, old)
	}
}

// dialSSSP runs Dial's bucket-queue Dijkstra from src over the arc
// list adj (the prepared graph, reverse traversals included in
// undirected games), whose weights are all positive integers ≤ span,
// writing distances into d. Because every path sum is an exact integer,
// the computed fixpoint is bit-identical to the heap's regardless of
// settling order.
//
// Pending distances always lie in [cur, cur+span], so a circular array
// of span+1 buckets indexes them without collision; a popped vertex
// whose stored distance no longer matches the bucket's distance is a
// stale entry superseded by an earlier improvement and is skipped.
func dialSSSP(d []float64, q *dialQueue, span, src int, adj *csr) {
	for i := range d {
		d[i] = math.Inf(1)
	}
	d[src] = 0
	q.ensure(span)
	nb := span + 1
	buckets := q.buckets
	buckets[0] = append(buckets[0][:0], int32(src))
	pending := 1
	// Locals, not adj's fields, in the loop: the compiler cannot keep
	// fields read through a pointer in registers across the stores to d
	// and the buckets.
	head, to, w := adj.head, adj.to, adj.w
	for cur := 0; pending > 0; cur++ {
		b := cur % nb
		bk := buckets[b]
		if len(bk) == 0 {
			continue
		}
		// Arcs weigh ≥ 1, so relaxations from distance cur land strictly
		// beyond cur and never refill this bucket while it drains.
		du := float64(cur)
		for len(bk) > 0 {
			u := bk[len(bk)-1]
			bk = bk[:len(bk)-1]
			pending--
			if d[u] != du {
				continue // stale: improved after this entry was pushed
			}
			for k := head[u]; k < head[u+1]; k++ {
				v := to[k]
				if nd := du + w[k]; nd < d[v] {
					d[v] = nd
					nbk := int(nd) % nb
					buckets[nbk] = append(buckets[nbk], v)
					pending++
				}
			}
		}
		buckets[b] = bk
	}
}
