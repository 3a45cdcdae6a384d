package core

import "math"

// maxBatchCacheFloats caps the total memory the persistent batch store
// may hold across all peers (8M float64 ≈ 64 MB). Each peer's entry is
// an n×n rest matrix, so up to maxBatchCacheFloats/n² peers persist;
// beyond the cap oracle calls fall back to the per-call scratch batch.
const maxBatchCacheFloats = 1 << 23

// BatchCache persists DeviationBatch rest matrices (the n−1 "graph
// minus the deviating peer" SSSP rows) across consecutive best-response
// oracle calls, so an oracle call for peer i after a move by peer m
// recomputes only the rows the move could have touched instead of
// rebuilding all n−1.
//
// Soundness is per row and conservative: after a move by m toggling the
// arc set {(m,t)}, the rest row of source k in G−i can change only if a
// removed arc was tight under the stored row (rest[k][m] + w(m,t) ==
// rest[k][t]) or an added arc strictly improves it (rest[k][m] + w(m,t)
// < rest[k][t]). noteMove marks exactly those rows dirty — over-marking
// is allowed, under-marking never happens — and dirty rows are
// re-settled from scratch at the next batch request. A move by m never
// touches m's own environment (G−m does not contain m's out-arcs), so
// m's entry survives its own move untouched.
//
// PeerVersion exposes a monotone per-peer environment version that
// increments exactly when the peer's rest data is invalidated; the
// dynamics engine keys its persistent best-response caches on it.
//
// The cache only exists for regimes the DeviationBatch decomposition
// supports (directed, congestion-free, n within the memory cap) and is
// created and notified by a DynEval; Evaluator.NewDeviationBatch
// consults it transparently when the requested profile matches the
// engine's current profile.
type BatchCache struct {
	n          int
	maxEntries int
	nEntries   int
	profile    Profile       // mirror of the engine's current profile
	entries    []*batchEntry // indexed by peer; nil = not persisted
	version    uint64        // bumped once per noteMove
	stats      BatchCacheStats
	wRem, wAdd []float64 // noteMove scratch: toggled-arc weights
	// addLog records every arc added by a move, in order, so dirty rows
	// untouched by removals can be repaired by relaxation. Bounded; on
	// overflow pending repairs degrade to full settles.
	addLog []addedArc
}

// addedArc is one link added by a move: the traversal arc m→t at direct
// weight w (the cache exists only in the directed congestion-free
// regime, where arc weights are plain distances).
type addedArc struct {
	m, t int32
	w    float64
}

// BatchCacheStats counts what the persistent store saved: RowsReused is
// the number of rest rows served without re-settling (each one is an
// SSSP avoided), RowsSettled the rows recomputed (dirty or first
// build), and EntryInvalidations how many times a peer's environment
// version was bumped (each bump forces the dynamics layer to re-ask the
// oracle for that peer).
type BatchCacheStats struct {
	RowsReused         int
	RowsSettled        int
	RowsRelaxed        int
	EntryInvalidations int
}

// Stats returns the cache's cumulative counters.
func (c *BatchCache) Stats() BatchCacheStats { return c.stats }

type batchEntry struct {
	peer   int
	flat   []float64
	rest   [][]float64 // row views; rest[peer] is nil
	dirty  []bool
	nDirty int
	// needSettle marks dirty rows that require a full re-settle; dirty
	// rows without it were touched only by link additions since the last
	// refresh and are repaired by seeded relaxation from the stored row
	// (strictly cheaper: O(improved region) instead of a full Dijkstra).
	needSettle []bool
	// logPos is the cache addLog length at the last refresh: the arcs
	// a relaxation repair must fold in are addLog[logPos:].
	logPos  int
	version uint64
}

// newBatchCache creates an empty cache mirroring profile p (cloned).
func newBatchCache(p Profile, n int) *BatchCache {
	maxEntries := 0
	if n > 1 {
		maxEntries = maxBatchCacheFloats / (n * n)
	}
	if maxEntries > n {
		maxEntries = n
	}
	return &BatchCache{
		n:          n,
		maxEntries: maxEntries,
		profile:    p.Clone(),
		entries:    make([]*batchEntry, n),
	}
}

// PeerVersion returns peer i's environment version: it changes exactly
// when a move may have altered the deviation environment (G−i
// distances) the last oracle answer for i was computed against. Peers
// without a persisted entry report the global move version, which
// changes on every move (conservatively invalid).
func (c *BatchCache) PeerVersion(i int) uint64 {
	if i >= 0 && i < len(c.entries) {
		if e := c.entries[i]; e != nil {
			return e.version
		}
	}
	return c.version
}

// noteMove records that the mover switched to newStrat, toggling the
// removed/added targets, and marks every persisted rest row the move
// could have touched as dirty.
func (c *BatchCache) noteMove(mover int, newStrat Strategy, removed, added []int, inst *Instance) {
	c.version++
	c.profile.strategies[mover] = newStrat.Clone()
	if len(removed) == 0 && len(added) == 0 {
		return
	}
	// Hoist the toggled-arc weights: they are entry- and row-invariant.
	wRem := c.wRem[:0]
	for _, t := range removed {
		wRem = append(wRem, inst.Distance(mover, t))
	}
	wAdd := c.wAdd[:0]
	for _, t := range added {
		wAdd = append(wAdd, inst.Distance(mover, t))
	}
	c.wRem, c.wAdd = wRem, wAdd
	const maxAddLog = 1 << 12
	logOverflow := len(c.addLog)+len(added) > maxAddLog
	if !logOverflow {
		for ti, t := range added {
			c.addLog = append(c.addLog, addedArc{m: int32(mover), t: int32(t), w: wAdd[ti]})
		}
	}
	for peer, e := range c.entries {
		if e == nil || peer == mover {
			continue // a move never touches G−mover (no out-arcs of the mover there)
		}
		dirtied := false
		for k := 0; k < c.n; k++ {
			if k == peer {
				continue
			}
			if e.dirty[k] {
				// A stale row cannot be tested soundly against this move;
				// any removal (or log overflow) degrades its pending
				// repair to a full settle.
				if (len(removed) > 0 || logOverflow) && !e.needSettle[k] {
					e.needSettle[k] = true
				}
				continue
			}
			row := e.rest[k]
			rm := row[mover]
			if math.IsInf(rm, 1) {
				continue // mover unreachable from k in G−peer: no arc of the mover is on any path
			}
			removalHit := false
			for ti, t := range removed {
				// Tight (==) means the arc may carry shortest paths; < is
				// impossible but folded in defensively.
				if rm+wRem[ti] <= row[t] {
					removalHit = true
					break
				}
			}
			addHit := false
			if !removalHit {
				for ti, t := range added {
					if rm+wAdd[ti] < row[t] {
						addHit = true
						break
					}
				}
			}
			if removalHit || addHit {
				e.dirty[k] = true
				e.nDirty++
				dirtied = true
				if removalHit || logOverflow {
					e.needSettle[k] = true
				}
			}
		}
		if dirtied {
			e.version = c.version
			c.stats.EntryInvalidations++
		}
	}
	if logOverflow {
		c.addLog = c.addLog[:0]
		for _, e := range c.entries {
			if e != nil {
				e.logPos = 0
			}
		}
	}
}

// batchFor returns a DeviationBatch for peer i backed by the persisted
// entry, re-settling only the dirty rows, or nil when the cache cannot
// serve the request (profile mismatch or entry budget exhausted).
func (c *BatchCache) batchFor(ev *Evaluator, p Profile, i int) *DeviationBatch {
	if !c.profile.Equal(p) {
		return nil
	}
	e := c.entries[i]
	if e == nil {
		if c.nEntries >= c.maxEntries {
			return nil
		}
		c.nEntries++
		n := c.n
		e = &batchEntry{
			peer:       i,
			flat:       make([]float64, n*n),
			rest:       make([][]float64, n),
			dirty:      make([]bool, n),
			needSettle: make([]bool, n),
			nDirty:     n - 1,
			version:    c.version,
		}
		for k := 0; k < n; k++ {
			if k != i {
				e.rest[k] = e.flat[k*n : (k+1)*n]
				e.dirty[k] = true
				e.needSettle[k] = true
			}
		}
		c.entries[i] = e
	}
	c.stats.RowsReused += c.n - 1 - e.nDirty
	if e.nDirty > 0 {
		// Full re-settles go through the shared rest-row fill (fanning
		// across an attached pool when there are enough of them).
		srcs := ev.srcScratch[:0]
		for k, dirty := range e.dirty {
			if dirty && e.needSettle[k] {
				srcs = append(srcs, int32(k))
			}
		}
		ev.srcScratch = srcs
		ev.fillRestRows(p, i, srcs, e.rest)
		c.stats.RowsSettled += len(srcs)
		if len(srcs) < e.nDirty {
			// Rows touched only by additions are repaired by relaxing the
			// pending arcs (skipping the peer's own, absent from G−peer)
			// over ev's adjacency of G−peer, which a sequential fill left
			// prepared. The result is the same min-over-paths fixpoint a
			// full Dijkstra computes, bit for bit.
			if ev.fanPool(len(srcs)) != nil {
				ev.prepare(p, i, Strategy{})
			}
			pending := c.addLog[e.logPos:]
			for k, dirty := range e.dirty {
				if dirty && !e.needSettle[k] {
					c.stats.RowsRelaxed++
					relaxAddedArcs(ev, e.rest[k], pending, i)
				}
			}
		}
		clear(e.dirty)
		clear(e.needSettle)
		e.nDirty = 0
	}
	e.logPos = len(c.addLog)
	if cap(ev.batchD) < c.n {
		ev.batchD = make([]float64, c.n)
	}
	ev.batch = DeviationBatch{ev: ev, i: i, rest: e.rest, d: ev.batchD[:c.n]}
	return &ev.batch
}

// relaxAddedArcs improves d in place by multi-source Dijkstra
// relaxation: seed with every pending added arc (m,t,w) that improves
// d[t], then propagate over the forward CSR built by the caller's
// prepare. Arcs owned by skipPeer are absent from G−skipPeer and are
// ignored.
func relaxAddedArcs(ev *Evaluator, d []float64, pending []addedArc, skipPeer int) {
	h := &ev.heap
	h.reset(len(d))
	for _, a := range pending {
		if int(a.m) == skipPeer {
			continue
		}
		if nd := d[a.m] + a.w; nd < d[a.t] {
			d[a.t] = nd
			h.fix(a.t, nd)
		}
	}
	fwdHead, fwdTo, fwdW := ev.fwd.head, ev.fwd.to, ev.fwd.w
	for !h.empty() {
		u, du := h.popMin()
		for k := fwdHead[u]; k < fwdHead[u+1]; k++ {
			to := fwdTo[k]
			if nd := du + fwdW[k]; nd < d[to] {
				d[to] = nd
				h.fix(to, nd)
			}
		}
	}
}
