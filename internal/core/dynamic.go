package core

import (
	"fmt"
	"math"
)

// DynEval is the incremental dynamics engine: it maintains, for one
// mutable profile, the full n×n matrix of overlay shortest-path
// distances plus per-source shortest-path-tree tight-parent counts, and
// updates both under a single-peer strategy change in time proportional
// to the region the move actually affects (Ramalingam–Reps style)
// instead of re-running n Dijkstras.
//
// Per source, a move is applied in three phases. Phase A walks the old
// tight-arc structure downward from every changed arc that was tight,
// decrementing tight-parent counts; a vertex whose count reaches zero
// has lost every shortest path and joins the affected set. Phase B
// re-settles the affected set with a bounded Dijkstra seeded from the
// best in-arcs crossing the unaffected boundary. Phase C propagates
// improvements (added or cheapened arcs, and affected vertices whose
// re-settled distance dropped) outward with a second bounded Dijkstra.
// Finally the tight-parent counts of every vertex whose distance, or
// whose in-arc weights or in-neighbor distances, changed are recomputed
// by an in-arc scan.
//
// The result is exact, not approximate: every phase computes the same
// min-over-paths fixpoint as a from-scratch Dijkstra run (IEEE addition
// of positive weights is monotone, so the fixpoint is unique), and the
// differential tests in dynamic_test.go assert bit-for-bit equality
// against Evaluator.sssp over randomized move sequences in every regime
// (directed, undirected, congestion γ > 0).
//
// All regimes are supported. Under congestion, a move by m re-weights
// every traversal arc entering a toggled target (the target's in-degree
// scale changes), which the delta machinery expresses as per-arc weight
// changes; undirected instances contribute the reverse-traversal arcs
// of the toggled links. Like an Evaluator, a DynEval is not safe for
// concurrent use.
type DynEval struct {
	ev *Evaluator
	p  Profile
	n  int

	dist []float64 // row-major n×n: dist[s*n+v] = d_G[p](s, v)
	cnt  []int32   // row-major n×n: tight in-arcs of v under source s

	// Traversal adjacency of the current profile: the strategy arcs
	// plus, for undirected instances, the reverse-traversal arcs. in
	// mirrors out head-indexed; inPos[k] is the out-position of in-arc
	// k, so arc weights live only in out.w.
	out    csr
	inHead []int32
	inTail []int32
	inPos  []int32
	inFill []int32

	indeg []int     // strategy in-degrees (congestion bookkeeping)
	scale []float64 // 1 + γ·indeg, nil when γ = 0

	// stats counts the rest rows of the deviation batches built on this
	// engine's profile (see Evaluator.NewDeviationBatch).
	stats BatchStats

	// Per-move scratch (see Apply).
	deltas    []arcDelta // weight-changed or removed arcs (finite old weight)
	added     []arcDelta // inserted arcs (infinite old weight)
	markedPos []int32
	isDelta   []bool    // by out-position: arc is in deltas
	posNewW   []float64 // by out-position: new weight (+Inf = removed)
	newScale  []float64
	addT      []int
	remT      []int

	// Per-row scratch.
	queue    []int32
	affected []int32
	oldAD    []float64
	inA      []bool
	improved []int32
	isImp    []bool
	recomp   []int32
	inR      []bool
	heap     vertexHeap
}

// arcDelta is one arc of a move's change set: the traversal arc u→v had
// weight oldW before the move and newW after (+Inf encodes absence).
type arcDelta struct {
	u, v       int32
	oldW, newW float64
}

// BatchStats counts where the rest rows of the deviation batches built
// on an engine's profile came from: RowsReused rows were the engine's
// own rows, read in place, and RowsSettled rows were settled afresh
// because the deviating peer had a tight link on them. RowsRelaxed is
// always 0; the field stays because perfbench reads it.
type BatchStats struct {
	RowsReused  int
	RowsSettled int
	RowsRelaxed int
}

// NewDynEval builds the incremental engine for the evaluator's instance
// at the given starting profile (cloned, not retained). When the
// instance admits batched deviation evaluation (directed, congestion
// free, within the memory cap) the engine attaches itself to the
// evaluator, so the evaluator's deviation batches on the engine's
// profile read their rest rows off the engine's matrix wherever the
// deviating peer has no tight link (see NewDeviationBatch); Close
// detaches it.
func NewDynEval(ev *Evaluator, p Profile) (*DynEval, error) {
	n := ev.inst.N()
	if p.N() != n {
		return nil, fmt.Errorf("core: profile has %d peers, instance has %d", p.N(), n)
	}
	dy := &DynEval{
		ev:       ev,
		p:        p.Clone(),
		n:        n,
		dist:     make([]float64, n*n),
		cnt:      make([]int32, n*n),
		indeg:    make([]int, n),
		inA:      make([]bool, n),
		isImp:    make([]bool, n),
		inR:      make([]bool, n),
		oldAD:    make([]float64, n),
		newScale: make([]float64, n),
	}
	dy.rebuildAdjacency()
	// Construction is the only full-matrix settle. It runs on the
	// evaluator's row loop over the evaluator's own adjacency of p, which
	// carries the same traversal arcs and weights as dy's CSR, so the rows
	// are bit-identical whichever kernel the instance dispatches to.
	ev.settleRows(dy.p, -1, Strategy{}, ev.inst.peers, 0, func(s int32, d []float64) bool {
		copy(dy.Row(int(s)), d)
		return true
	})
	for s := 0; s < n; s++ {
		dy.rebuildRowCounts(s)
	}
	if ev.inst.SupportsBatchEval() {
		ev.dyn = dy
	}
	return dy, nil
}

// Close detaches the engine from the evaluator, whose deviation batches
// then settle every rest row. The engine itself holds no other shared
// state.
func (dy *DynEval) Close() {
	if dy.ev.dyn == dy {
		dy.ev.dyn = nil
	}
}

// Stats returns the rest-row counters of the deviation batches built on
// the engine's profile while it was attached.
func (dy *DynEval) Stats() BatchStats { return dy.stats }

// Profile returns the engine's current profile. The returned value
// shares storage; callers must not mutate it.
func (dy *DynEval) Profile() Profile { return dy.p }

// Row returns the current shortest-path distances from source s as a
// view into the engine's matrix; it stays live (and mutates) across
// Apply calls.
func (dy *DynEval) Row(s int) []float64 { return dy.dist[s*dy.n : (s+1)*dy.n] }

// tightLink reports whether a link of peer i is tight in row k: i is
// reachable from k and d(k,i) + w(i,t) == d(k,t) for some link i→t. A
// row with no tight link of i is already i's rest row (see
// Evaluator.NewDeviationBatch).
func (dy *DynEval) tightLink(k, i int) bool {
	d := dy.Row(k)
	di := d[i]
	if math.IsInf(di, 1) {
		return false
	}
	for a := dy.out.head[i]; a < dy.out.head[i+1]; a++ {
		if di+dy.out.w[a] == d[dy.out.to[a]] {
			return true
		}
	}
	return false
}

// PeerEval returns peer i's enriched cost under the current profile,
// bit-identical to Evaluator.PeerEval on the same profile — but O(n)
// from the maintained distance row instead of a fresh SSSP.
func (dy *DynEval) PeerEval(i int) Eval {
	return dy.ev.peerEvalFrom(dy.Row(i), i, dy.p.OutDegree(i))
}

// SocialCost returns the decomposed social cost of the current profile
// from the maintained rows, bit-identical to Evaluator.SocialCost.
func (dy *DynEval) SocialCost() Cost {
	total := Cost{}
	for i := 0; i < dy.n; i++ {
		c := dy.PeerEval(i).Cost
		total.Link += c.Link
		total.Term += c.Term
	}
	return total
}

// arcWeight is the traversal weight of entering v from u: the direct
// distance scaled by v's congestion factor. It matches the arithmetic
// of Evaluator.prepare exactly, so distances agree bit for bit.
func (dy *DynEval) arcWeight(u, v int, scale []float64) float64 {
	w := dy.ev.inst.Distance(u, v)
	if scale != nil {
		w *= scale[v]
	}
	return w
}

// rebuildAdjacency rebuilds the traversal CSR (out + head-indexed
// mirror) and the congestion state for the current profile. O(n + E).
func (dy *DynEval) rebuildAdjacency() {
	n := dy.n
	inst := dy.ev.inst

	for i := range dy.indeg {
		dy.indeg[i] = 0
	}
	for u := 0; u < n; u++ {
		dy.p.strategies[u].ForEach(func(j int) bool {
			dy.indeg[j]++
			return true
		})
	}
	if gamma := inst.congestionGamma; gamma > 0 {
		if dy.scale == nil {
			dy.scale = make([]float64, n)
		}
		for j := 0; j < n; j++ {
			dy.scale[j] = 1 + gamma*float64(dy.indeg[j])
		}
	} else {
		dy.scale = nil
	}

	if cap(dy.out.head) < n+1 {
		dy.out.head = make([]int32, n+1)
		dy.inHead = make([]int32, n+1)
		dy.inFill = make([]int32, n)
	}
	dy.out.head = dy.out.head[:n+1]
	dy.inHead = dy.inHead[:n+1]
	dy.inFill = dy.inFill[:n]
	for u := 0; u <= n; u++ {
		dy.out.head[u] = 0
		dy.inHead[u] = 0
	}
	// Out-degree per row: own strategy arcs plus (undirected) the
	// reverse-traversal arcs of links others own to us.
	for u := 0; u < n; u++ {
		deg := dy.p.strategies[u].Count()
		if inst.undirected {
			deg += dy.indeg[u]
		}
		dy.out.head[u+1] = dy.out.head[u] + int32(deg)
	}
	m := int(dy.out.head[n])
	if cap(dy.out.to) < m {
		dy.out.to = make([]int32, m)
		dy.out.w = make([]float64, m)
		dy.inTail = make([]int32, m)
		dy.inPos = make([]int32, m)
	}
	dy.out.to = dy.out.to[:m]
	dy.out.w = dy.out.w[:m]
	dy.inTail = dy.inTail[:m]
	dy.inPos = dy.inPos[:m]

	fill := dy.inFill // reuse as out-fill first
	for u := 0; u < n; u++ {
		fill[u] = dy.out.head[u]
	}
	for u := 0; u < n; u++ {
		dy.p.strategies[u].ForEach(func(j int) bool {
			pos := fill[u]
			dy.out.to[pos] = int32(j)
			dy.out.w[pos] = dy.arcWeight(u, j, dy.scale)
			fill[u] = pos + 1
			if inst.undirected {
				// Reverse traversal j→u of the link u owns to j, entering
				// the owner u: weight d(j,u) scaled by u's factor.
				rp := fill[j]
				dy.out.to[rp] = int32(u)
				dy.out.w[rp] = dy.arcWeight(j, u, dy.scale)
				fill[j] = rp + 1
			}
			return true
		})
	}

	// Head-indexed mirror with cross-references into out.
	for k := 0; k < m; k++ {
		dy.inHead[dy.out.to[k]+1]++
	}
	for v := 0; v < n; v++ {
		dy.inHead[v+1] += dy.inHead[v]
		dy.inFill[v] = dy.inHead[v]
	}
	for u := 0; u < n; u++ {
		for k := dy.out.head[u]; k < dy.out.head[u+1]; k++ {
			v := dy.out.to[k]
			pos := dy.inFill[v]
			dy.inTail[pos] = int32(u)
			dy.inPos[pos] = k
			dy.inFill[v] = pos + 1
		}
	}

	if cap(dy.isDelta) < m {
		dy.isDelta = make([]bool, m)
		dy.posNewW = make([]float64, m)
	}
	dy.isDelta = dy.isDelta[:m]
	dy.posNewW = dy.posNewW[:m]
}

// rebuildRowCounts recomputes every tight-parent count of source s by a
// full arc scan (used at construction; moves recompute only the touched
// set).
func (dy *DynEval) rebuildRowCounts(s int) {
	n := dy.n
	d := dy.Row(s)
	cnt := dy.cnt[s*n : (s+1)*n]
	for i := range cnt {
		cnt[i] = 0
	}
	for u := 0; u < n; u++ {
		du := d[u]
		if math.IsInf(du, 1) {
			continue
		}
		for k := dy.out.head[u]; k < dy.out.head[u+1]; k++ {
			if du+dy.out.w[k] == d[dy.out.to[k]] {
				cnt[dy.out.to[k]]++
			}
		}
	}
}

// markDeltaPos records a weight change (or removal, newW = +Inf) for
// the out-arc at position pos.
func (dy *DynEval) markDeltaPos(pos int32, newW float64) {
	dy.isDelta[pos] = true
	dy.posNewW[pos] = newW
	dy.markedPos = append(dy.markedPos, pos)
}

// findUnmarkedArc returns the first position of an arc u→v not yet
// marked as part of the move's delta, or -1. Parallel traversal arcs
// (undirected mutual links) carry identical weights, so which of them
// is attributed to the removed link is immaterial.
func (dy *DynEval) findUnmarkedArc(u, v int) int32 {
	for k := dy.out.head[u]; k < dy.out.head[u+1]; k++ {
		if dy.out.to[k] == int32(v) && !dy.isDelta[k] {
			return k
		}
	}
	return -1
}

// buildArcDeltas translates the strategy toggle into the per-arc change
// set: dy.deltas (finite old weight: removals and γ re-weightings, with
// out-positions marked) and dy.added (insertions).
func (dy *DynEval) buildArcDeltas(mover int) {
	inst := dy.ev.inst
	dy.deltas = dy.deltas[:0]
	dy.added = dy.added[:0]

	if gamma := inst.congestionGamma; gamma > 0 {
		// Toggled targets change in-degree, so every traversal arc
		// entering them is re-weighted; the toggled arcs themselves are
		// the removal/insertion cases of that same scan.
		for _, t := range dy.remT {
			dy.newScale[t] = 1 + gamma*float64(dy.indeg[t]-1)
		}
		for _, t := range dy.addT {
			dy.newScale[t] = 1 + gamma*float64(dy.indeg[t]+1)
		}
		for _, t := range dy.remT {
			removedSeen := false
			for k := dy.inHead[t]; k < dy.inHead[t+1]; k++ {
				u := int(dy.inTail[k])
				pos := dy.inPos[k]
				oldW := dy.out.w[pos]
				if u == mover && !removedSeen {
					removedSeen = true
					dy.deltas = append(dy.deltas, arcDelta{u: int32(u), v: int32(t), oldW: oldW, newW: math.Inf(1)})
					dy.markDeltaPos(pos, math.Inf(1))
					continue
				}
				newW := inst.Distance(u, t) * dy.newScale[t]
				dy.deltas = append(dy.deltas, arcDelta{u: int32(u), v: int32(t), oldW: oldW, newW: newW})
				dy.markDeltaPos(pos, newW)
			}
		}
		for _, t := range dy.addT {
			for k := dy.inHead[t]; k < dy.inHead[t+1]; k++ {
				u := int(dy.inTail[k])
				pos := dy.inPos[k]
				newW := inst.Distance(u, t) * dy.newScale[t]
				dy.deltas = append(dy.deltas, arcDelta{u: int32(u), v: int32(t), oldW: dy.out.w[pos], newW: newW})
				dy.markDeltaPos(pos, newW)
			}
			dy.added = append(dy.added, arcDelta{
				u: int32(mover), v: int32(t),
				oldW: math.Inf(1), newW: inst.Distance(mover, t) * dy.newScale[t],
			})
		}
	} else {
		for _, t := range dy.remT {
			pos := dy.findUnmarkedArc(mover, t)
			dy.deltas = append(dy.deltas, arcDelta{u: int32(mover), v: int32(t), oldW: dy.out.w[pos], newW: math.Inf(1)})
			dy.markDeltaPos(pos, math.Inf(1))
		}
		for _, t := range dy.addT {
			dy.added = append(dy.added, arcDelta{
				u: int32(mover), v: int32(t),
				oldW: math.Inf(1), newW: dy.arcWeight(mover, t, dy.scale),
			})
		}
	}

	if inst.undirected {
		// Reverse-traversal arcs t→mover of the toggled links. The
		// entered owner is the mover, whose in-degree (hence scale) a
		// self-move never changes.
		for _, t := range dy.remT {
			pos := dy.findUnmarkedArc(t, mover)
			dy.deltas = append(dy.deltas, arcDelta{u: int32(t), v: int32(mover), oldW: dy.out.w[pos], newW: math.Inf(1)})
			dy.markDeltaPos(pos, math.Inf(1))
		}
		for _, t := range dy.addT {
			dy.added = append(dy.added, arcDelta{
				u: int32(t), v: int32(mover),
				oldW: math.Inf(1), newW: dy.arcWeight(t, mover, dy.scale),
			})
		}
	}
}

// forEachNewInArc visits every in-arc of v in the post-move graph:
// surviving CSR arcs at their new weights plus the inserted arcs.
func (dy *DynEval) forEachNewInArc(v int32, fn func(u int32, w float64)) {
	for k := dy.inHead[v]; k < dy.inHead[v+1]; k++ {
		pos := dy.inPos[k]
		w := dy.out.w[pos]
		if dy.isDelta[pos] {
			w = dy.posNewW[pos]
			if math.IsInf(w, 1) {
				continue
			}
		}
		fn(dy.inTail[k], w)
	}
	for _, a := range dy.added {
		if a.v == v {
			fn(a.u, a.newW)
		}
	}
}

// forEachNewOutArc visits every out-arc of u in the post-move graph.
func (dy *DynEval) forEachNewOutArc(u int32, fn func(x int32, w float64)) {
	for k := dy.out.head[u]; k < dy.out.head[u+1]; k++ {
		w := dy.out.w[k]
		if dy.isDelta[k] {
			w = dy.posNewW[k]
			if math.IsInf(w, 1) {
				continue
			}
		}
		fn(dy.out.to[k], w)
	}
	for _, a := range dy.added {
		if a.u == u {
			fn(a.v, a.newW)
		}
	}
}

// updateRow applies the pending move's arc deltas to source s's
// distances and counts.
func (dy *DynEval) updateRow(s int) {
	n := dy.n
	d := dy.Row(s)
	cnt := dy.cnt[s*n : (s+1)*n]

	// Phase A: every changed arc that was tight is a lost parent (a
	// re-weighted arc re-earns tightness in the final recount); cascade
	// zero-count vertices through the old tight structure.
	dy.queue = dy.queue[:0]
	dy.affected = dy.affected[:0]
	for _, dl := range dy.deltas {
		du := d[dl.u]
		if !math.IsInf(du, 1) && du+dl.oldW == d[dl.v] {
			cnt[dl.v]--
			if cnt[dl.v] == 0 && !dy.inA[dl.v] {
				dy.inA[dl.v] = true
				dy.affected = append(dy.affected, dl.v)
				dy.queue = append(dy.queue, dl.v)
			}
		}
	}
	for len(dy.queue) > 0 {
		v := dy.queue[len(dy.queue)-1]
		dy.queue = dy.queue[:len(dy.queue)-1]
		dv := d[v]
		for k := dy.out.head[v]; k < dy.out.head[v+1]; k++ {
			if dy.isDelta[k] {
				continue // already accounted as a changed arc
			}
			x := dy.out.to[k]
			if dv+dy.out.w[k] == d[x] {
				cnt[x]--
				if cnt[x] == 0 && !dy.inA[x] {
					dy.inA[x] = true
					dy.affected = append(dy.affected, x)
					dy.queue = append(dy.queue, x)
				}
			}
		}
	}

	if len(dy.affected) == 0 {
		// Fast path: no distance can increase. Check the changed arcs for
		// improvements; if none, the row's distances are untouched and the
		// only count updates are the Phase A decrements plus increments
		// for changed/inserted arcs that are tight at their new weight
		// (non-delta in-arcs of those heads kept their distance on both
		// ends, so their tightness is unchanged).
		improvedSeed := false
		for _, dl := range dy.deltas {
			if du := d[dl.u]; !math.IsInf(dl.newW, 1) && !math.IsInf(du, 1) && du+dl.newW < d[dl.v] {
				improvedSeed = true
				break
			}
		}
		if !improvedSeed {
			for _, dl := range dy.added {
				if du := d[dl.u]; !math.IsInf(du, 1) && du+dl.newW < d[dl.v] {
					improvedSeed = true
					break
				}
			}
		}
		if !improvedSeed {
			for _, dl := range dy.deltas {
				if du := d[dl.u]; !math.IsInf(dl.newW, 1) && !math.IsInf(du, 1) && du+dl.newW == d[dl.v] {
					cnt[dl.v]++
				}
			}
			for _, dl := range dy.added {
				if du := d[dl.u]; !math.IsInf(du, 1) && du+dl.newW == d[dl.v] {
					cnt[dl.v]++
				}
			}
			return
		}
	}

	// Phase B: re-settle the affected region from its boundary.
	h := &dy.heap
	if len(dy.affected) > 0 {
		for idx, v := range dy.affected {
			dy.oldAD[idx] = d[v]
			d[v] = math.Inf(1)
		}
		h.reset(n)
		for _, v := range dy.affected {
			best := math.Inf(1)
			dy.forEachNewInArc(v, func(u int32, w float64) {
				if !dy.inA[u] && !math.IsInf(d[u], 1) {
					if c := d[u] + w; c < best {
						best = c
					}
				}
			})
			if best < math.Inf(1) {
				d[v] = best
				h.fix(v, best)
			}
		}
		for !h.empty() {
			u, du := h.popMin()
			dy.forEachNewOutArc(u, func(x int32, w float64) {
				if dy.inA[x] {
					if nd := du + w; nd < d[x] {
						d[x] = nd
						h.fix(x, nd)
					}
				}
			})
		}
	}

	// Phase C: propagate improvements from inserted/cheapened arcs and
	// from affected vertices whose re-settled distance dropped.
	dy.improved = dy.improved[:0]
	h.reset(n)
	seed := func(dl arcDelta) {
		if du := d[dl.u]; !math.IsInf(du, 1) {
			if c := du + dl.newW; c < d[dl.v] {
				d[dl.v] = c
				h.fix(dl.v, c)
				if !dy.isImp[dl.v] {
					dy.isImp[dl.v] = true
					dy.improved = append(dy.improved, dl.v)
				}
			}
		}
	}
	for _, dl := range dy.added {
		seed(dl)
	}
	for _, dl := range dy.deltas {
		if !math.IsInf(dl.newW, 1) {
			seed(dl)
		}
	}
	for idx, v := range dy.affected {
		if d[v] < dy.oldAD[idx] {
			h.fix(v, d[v])
		}
	}
	for !h.empty() {
		u, du := h.popMin()
		dy.forEachNewOutArc(u, func(x int32, w float64) {
			if nd := du + w; nd < d[x] {
				d[x] = nd
				h.fix(x, nd)
				if !dy.isImp[x] {
					dy.isImp[x] = true
					dy.improved = append(dy.improved, x)
				}
			}
		})
	}

	// Recount tight parents for the touched set: heads of changed and
	// inserted arcs, every vertex whose distance changed, and the
	// post-move out-neighbors of the latter.
	dy.recomp = dy.recomp[:0]
	addR := func(v int32) {
		if !dy.inR[v] {
			dy.inR[v] = true
			dy.recomp = append(dy.recomp, v)
		}
	}
	for _, dl := range dy.deltas {
		addR(dl.v)
	}
	for _, dl := range dy.added {
		addR(dl.v)
	}
	for _, v := range dy.affected {
		addR(v)
	}
	for _, v := range dy.improved {
		addR(v)
	}
	for i := 0; i < len(dy.recomp); i++ { // out-neighbors of changed vertices
		v := dy.recomp[i]
		if dy.inA[v] || dy.isImp[v] {
			dy.forEachNewOutArc(v, func(x int32, _ float64) { addR(x) })
		}
	}
	for _, v := range dy.recomp {
		c := int32(0)
		dv := d[v]
		dy.forEachNewInArc(v, func(u int32, w float64) {
			if du := d[u]; !math.IsInf(du, 1) && du+w == dv {
				c++
			}
		})
		cnt[v] = c
	}

	// Reset row scratch.
	for _, v := range dy.affected {
		dy.inA[v] = false
	}
	for _, v := range dy.improved {
		dy.isImp[v] = false
	}
	for _, v := range dy.recomp {
		dy.inR[v] = false
	}
}

// Apply switches the mover to strategy alt and incrementally updates
// every distance row, the tight-parent counts and the adjacency. The
// caller's alt is cloned, not retained. Deviation batches that read
// the engine's rows are valid only until the next Apply.
func (dy *DynEval) Apply(mover int, alt Strategy) error {
	n := dy.n
	if mover < 0 || mover >= n {
		return fmt.Errorf("core: mover %d out of range [0,%d)", mover, n)
	}
	old := dy.p.Strategy(mover)
	dy.addT = dy.addT[:0]
	dy.remT = dy.remT[:0]
	alt.ForEach(func(t int) bool {
		if !old.Contains(t) {
			dy.addT = append(dy.addT, t)
		}
		return true
	})
	old.ForEach(func(t int) bool {
		if !alt.Contains(t) {
			dy.remT = append(dy.remT, t)
		}
		return true
	})
	if len(dy.addT) == 0 && len(dy.remT) == 0 {
		return nil
	}
	// Validate (and clone) the new strategy before mutating any state.
	if err := dy.p.SetStrategy(mover, alt); err != nil {
		return err
	}

	dy.markedPos = dy.markedPos[:0]
	dy.buildArcDeltas(mover)
	for s := 0; s < n; s++ {
		dy.updateRow(s)
	}
	for _, pos := range dy.markedPos {
		dy.isDelta[pos] = false
	}
	dy.rebuildAdjacency()
	return nil
}
