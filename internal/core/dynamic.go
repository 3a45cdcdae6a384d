package core

import (
	"fmt"
	"math"
)

// DynEval is the incremental dynamics engine: it maintains, for one
// mutable profile, the full n×n matrix of overlay shortest-path
// distances, and updates it under a single-peer strategy change in time
// proportional to the region the move actually affects
// (Ramalingam–Reps style) instead of re-running n Dijkstras.
//
// Per source, a move is applied in three phases. Phase A decides the
// affected set, the vertices whose distance may rise, in increasing old
// distance: the heads of changed arcs that were tight are candidates,
// and so are the tight children of every affected vertex. A candidate v
// stays unaffected iff some unchanged in-arc u→v is tight, u is
// unaffected and d(u) < d(v); an affected vertex is never a candidate
// again. Phase B re-settles the affected set with a bounded Dijkstra
// seeded from the best in-arcs crossing the unaffected boundary. Phase
// C propagates improvements (added or cheapened arcs, and affected
// vertices whose re-settled distance dropped) outward with a second
// bounded Dijkstra.
//
// The result is exact, not approximate. IEEE addition of positive
// weights is monotone, so a fresh Dijkstra reaches the minimum over
// paths, but where the addition absorbs a weight (d + w == d) a cycle
// of tight arcs can also meet the fixpoint equations at a stale, lower
// distance. The strict d(u) < d(v) keeps such a cycle from keeping its
// own vertices: every distance the move could raise is then affected,
// and Phases B and C reach the fixpoint Dijkstra reaches. The
// differential tests in dynamic_test.go assert bit-for-bit equality
// against Evaluator.sssp over randomized move sequences in every regime
// (directed, undirected, congestion γ > 0) and on absorbed arcs.
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

	// g is the overlay of the current profile, built by graph.build as
	// the evaluator's is, with its in-degrees and congestion scale. in
	// mirrors g's arc list head-indexed; inPos[k] is the position in g
	// of in-arc k, so arc weights live only in g.w.
	g      graph
	inHead []int32
	inTail []int32
	inPos  []int32
	inFill []int32

	// stats counts the rest rows of the deviation batches built on this
	// engine's profile (see Evaluator.NewDeviationBatch).
	stats BatchStats

	// Per-move scratch (see Apply).
	deltas    []arcDelta // weight-changed or removed arcs (finite old weight)
	added     []arcDelta // inserted arcs (infinite old weight)
	markedPos []int32
	isDelta   []bool    // by position in g: arc is in deltas
	posNewW   []float64 // by position in g: new weight (+Inf = removed)
	newScale  []float64
	addT      []int
	remT      []int

	// Per-row scratch.
	affected []int32
	oldAD    []float64
	inA      []bool
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
// at the given starting profile (cloned, not retained). Its starting
// rows and its adjacency come from the same builder, graph.build: the
// rows are settled on the evaluator's graph of the profile and the
// engine keeps its own graph of it for the moves to come. When the
// instance admits batched deviation evaluation and is directed, the
// engine attaches itself to the evaluator, so the evaluator's deviation
// batches on the engine's profile read their rest rows off the engine's
// matrix wherever the deviating peer has no tight link (see
// NewDeviationBatch); Close detaches it. An undirected batch's rows
// start at the deviating peer's direct distances while the engine's
// start at 0, so there it lends none.
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
		inA:      make([]bool, n),
		oldAD:    make([]float64, n),
		newScale: make([]float64, n),
	}
	dy.heap.reset(n)
	dy.rebuildAdjacency()
	// Construction is the only full-matrix settle. It runs on the
	// evaluator's row loop over the evaluator's own graph of p, which
	// graph.build fills with the same arcs and weights as dy.g, so the
	// rows are bit-identical whichever kernel the instance dispatches to.
	ev.settleRows(dy.p, -1, Strategy{}, ev.inst.peers, nil, func(s int32, d []float64) bool {
		copy(dy.Row(int(s)), d)
		return true
	})
	if ev.inst.SupportsBatchEval() && !ev.inst.undirected {
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
	for a := dy.g.head[i]; a < dy.g.head[i+1]; a++ {
		if di+dy.g.w[a] == d[dy.g.to[a]] {
			return true
		}
	}
	return false
}

// PeerEval returns peer i's enriched cost under the current profile,
// bit-identical to Evaluator.PeerEval on the same profile — but O(n)
// from the maintained distance row instead of a fresh SSSP.
func (dy *DynEval) PeerEval(i int) Eval {
	return dy.ev.peerEvalFrom(dy.Row(i), i, dy.p.OutDegree(i), nil)
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

// arcWeight is the traversal weight of entering v from u under the
// current profile: the direct distance scaled by v's congestion factor,
// the arithmetic of graph.build, so distances agree bit for bit.
func (dy *DynEval) arcWeight(u, v int) float64 {
	w := dy.ev.inst.Distance(u, v)
	if dy.g.scale != nil {
		w *= dy.g.scale[v]
	}
	return w
}

// rebuildAdjacency rebuilds the engine's graph for the current profile
// by graph.build, then its head-indexed mirror. O(n + E).
func (dy *DynEval) rebuildAdjacency() {
	n := dy.n
	dy.g.build(dy.ev.inst, dy.p, -1, Strategy{})
	m := len(dy.g.to)
	if cap(dy.inHead) < n+1 {
		dy.inHead = make([]int32, n+1)
		dy.inFill = make([]int32, n)
	}
	dy.inHead = dy.inHead[:n+1]
	dy.inFill = dy.inFill[:n]
	if cap(dy.inTail) < m {
		dy.inTail = make([]int32, m)
		dy.inPos = make([]int32, m)
		dy.isDelta = make([]bool, m)
		dy.posNewW = make([]float64, m)
	}
	dy.inTail = dy.inTail[:m]
	dy.inPos = dy.inPos[:m]
	dy.isDelta = dy.isDelta[:m]
	dy.posNewW = dy.posNewW[:m]

	// Head-indexed mirror with cross-references into g.
	for v := range dy.inHead {
		dy.inHead[v] = 0
	}
	for _, v := range dy.g.to {
		dy.inHead[v+1]++
	}
	for v := 0; v < n; v++ {
		dy.inHead[v+1] += dy.inHead[v]
		dy.inFill[v] = dy.inHead[v]
	}
	for u := 0; u < n; u++ {
		for k := dy.g.head[u]; k < dy.g.head[u+1]; k++ {
			v := dy.g.to[k]
			pos := dy.inFill[v]
			dy.inTail[pos] = int32(u)
			dy.inPos[pos] = k
			dy.inFill[v] = pos + 1
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
	for k := dy.g.head[u]; k < dy.g.head[u+1]; k++ {
		if dy.g.to[k] == int32(v) && !dy.isDelta[k] {
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
			dy.newScale[t] = 1 + gamma*float64(dy.g.indeg[t]-1)
		}
		for _, t := range dy.addT {
			dy.newScale[t] = 1 + gamma*float64(dy.g.indeg[t]+1)
		}
		for _, t := range dy.remT {
			removedSeen := false
			for k := dy.inHead[t]; k < dy.inHead[t+1]; k++ {
				u := int(dy.inTail[k])
				pos := dy.inPos[k]
				oldW := dy.g.w[pos]
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
				dy.deltas = append(dy.deltas, arcDelta{u: int32(u), v: int32(t), oldW: dy.g.w[pos], newW: newW})
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
			dy.deltas = append(dy.deltas, arcDelta{u: int32(mover), v: int32(t), oldW: dy.g.w[pos], newW: math.Inf(1)})
			dy.markDeltaPos(pos, math.Inf(1))
		}
		for _, t := range dy.addT {
			dy.added = append(dy.added, arcDelta{
				u: int32(mover), v: int32(t),
				oldW: math.Inf(1), newW: dy.arcWeight(mover, t),
			})
		}
	}

	if inst.undirected {
		// Reverse-traversal arcs t→mover of the toggled links. The
		// entered owner is the mover, whose in-degree (hence scale) a
		// self-move never changes.
		for _, t := range dy.remT {
			pos := dy.findUnmarkedArc(t, mover)
			dy.deltas = append(dy.deltas, arcDelta{u: int32(t), v: int32(mover), oldW: dy.g.w[pos], newW: math.Inf(1)})
			dy.markDeltaPos(pos, math.Inf(1))
		}
		for _, t := range dy.addT {
			dy.added = append(dy.added, arcDelta{
				u: int32(t), v: int32(mover),
				oldW: math.Inf(1), newW: dy.arcWeight(t, mover),
			})
		}
	}
}

// forEachNewInArc visits every in-arc of v in the post-move graph:
// surviving CSR arcs at their new weights plus the inserted arcs.
func (dy *DynEval) forEachNewInArc(v int32, fn func(u int32, w float64)) {
	for k := dy.inHead[v]; k < dy.inHead[v+1]; k++ {
		pos := dy.inPos[k]
		w := dy.g.w[pos]
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
	for k := dy.g.head[u]; k < dy.g.head[u+1]; k++ {
		w := dy.g.w[k]
		if dy.isDelta[k] {
			w = dy.posNewW[k]
			if math.IsInf(w, 1) {
				continue
			}
		}
		fn(dy.g.to[k], w)
	}
	for _, a := range dy.added {
		if a.u == u {
			fn(a.v, a.newW)
		}
	}
}

// updateRow applies the pending move's arc deltas to source s's
// distances. Each phase drains the heap it fills, so NewDynEval sizes
// it once.
func (dy *DynEval) updateRow(s int) {
	d := dy.Row(s)
	h := &dy.heap

	// Phase A: decide the affected set in increasing old distance. The
	// heads of changed arcs that were tight are the first candidates.
	dy.affected = dy.affected[:0]
	for _, dl := range dy.deltas {
		if du := d[dl.u]; !math.IsInf(du, 1) && du+dl.oldW == d[dl.v] {
			h.fix(dl.v, d[dl.v])
		}
	}
	for !h.empty() {
		v, dv := h.popMin()
		if dy.kept(d, v, dv) {
			continue
		}
		dy.inA[v] = true
		dy.affected = append(dy.affected, v)
		for k := dy.g.head[v]; k < dy.g.head[v+1]; k++ {
			if x := dy.g.to[k]; !dy.isDelta[k] && !dy.inA[x] && dv+dy.g.w[k] == d[x] {
				h.fix(x, d[x])
			}
		}
	}

	// Phase B: re-settle the affected set from its boundary.
	for idx, v := range dy.affected {
		dy.oldAD[idx] = d[v]
		d[v] = math.Inf(1)
	}
	for _, v := range dy.affected {
		best := math.Inf(1)
		dy.forEachNewInArc(v, func(u int32, w float64) {
			if c := d[u] + w; !dy.inA[u] && c < best {
				best = c
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
			if nd := du + w; dy.inA[x] && nd < d[x] {
				d[x] = nd
				h.fix(x, nd)
			}
		})
	}

	// Phase C: propagate improvements from inserted and cheapened arcs
	// and from affected vertices whose re-settled distance dropped. A
	// removed arc's +Inf weight seeds nothing, and no affected flag is
	// read, so the flags are cleared here.
	seed := func(dl arcDelta) {
		if c := d[dl.u] + dl.newW; c < d[dl.v] {
			d[dl.v] = c
			h.fix(dl.v, c)
		}
	}
	for _, dl := range dy.added {
		seed(dl)
	}
	for _, dl := range dy.deltas {
		seed(dl)
	}
	for idx, v := range dy.affected {
		dy.inA[v] = false
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
			}
		})
	}
}

// kept reports whether Phase A keeps candidate v at its old distance
// dv: some unchanged in-arc u→v is tight, u is unaffected and d(u) < dv.
// A candidate is popped only after every vertex nearer the source is
// decided, and the strict d(u) < dv stops a tight cycle of absorbed
// weights (d + w == d) from keeping its own vertices.
func (dy *DynEval) kept(d []float64, v int32, dv float64) bool {
	for k := dy.inHead[v]; k < dy.inHead[v+1]; k++ {
		u, pos := dy.inTail[k], dy.inPos[k]
		if du := d[u]; !dy.isDelta[pos] && !dy.inA[u] && du < dv && du+dy.g.w[pos] == dv {
			return true
		}
	}
	return false
}

// Apply switches the mover to strategy alt and incrementally updates
// every distance row and the adjacency. The caller's alt is cloned, not
// retained. Deviation batches that read
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
