package core

import "math"

// maxBatchPeers caps the O(n²) distance table a DeviationBatch holds
// (2048 peers ≈ 32 MB of float64), so batching never dominates memory on
// large instances; above the cap oracles fall back to per-candidate SSSP.
const maxBatchPeers = 2048

// SupportsBatchEval reports whether the instance admits batched
// deviation evaluation: congestion-free and within the memory cap (see
// NewDeviationBatch for why congestion cannot use the decomposition).
// Callers that provision resources for batch construction — e.g. the
// dynamics layer's intra-step worker pool — gate on it.
func (in *Instance) SupportsBatchEval() bool {
	return in.congestionGamma == 0 && in.n <= maxBatchPeers
}

// DeviationBatch evaluates many candidate strategies for one fixed peer
// far faster than per-candidate SSSP. It exploits the structure of a
// unilateral deviation in a congestion-free game: peer i's own links
// only matter as the first hop of a path from i (positive weights mean
// shortest paths never revisit i), so with rest row k holding the
// distances from k with i's own links removed, the deviation distances
// are
//
//	d[j] = min(fixed[j], min_{k∈s} (hop[k] + rest[k][j]))
//
// an O(|s|·n) fold per candidate instead of a full Dijkstra. The exact
// best-response oracle scores hundreds of candidates per call, so the
// n−1 upfront SSSPs amortize immediately. A candidate one add, drop or
// swap away from a base strategy costs O(n) on the move base
// (moves.go), which local search and greedy score with.
//
// The two regimes fill the rows differently:
//   - Directed: rest[k][j] = d_{G−i}(k, j), hop = d(i, ·), and fixed is
//     +Inf but for fixed[i] = 0. Evals agree with DeviationEval up to
//     floating-point association (d(i,k) is added after the path sum).
//   - Undirected: a link another peer owns to i serves i too, as a first
//     hop i cannot drop. Rest row k starts at d(i,k) (the row loops'
//     seed), so each entry is the left-fold Dijkstra from i computes
//     along that path; hop is all zeros (0 + x == x); and fixed is the
//     min of the rows of the peers that own a link to i, with fixed[i] =
//     0. Dijkstra's distance is the min over paths of left-fold sums;
//     the paths from i split by first hop, and a path through i again is
//     no shorter than its part after i, which starts with one of
//     fixed's hops. So every Eval == DeviationEval, bit for bit.
//
// Every fold takes its minima with the min builtin, branch-free: no
// value is NaN (weights are positive, rows non-negative or +Inf) and no
// zero is negative, so min is the exact minimum.
//
// The batch reuses evaluator-owned scratch: it stays valid until the
// next NewDeviationBatch call on the same evaluator, and is bound to the
// profile and peer it was created for. A batch that reads an attached
// DynEval's rows is valid only until that engine's next Apply. Like the
// evaluator itself it is not safe for concurrent use.
type DeviationBatch struct {
	ev   *Evaluator
	i    int
	rest [][]float64
	// hop[k] is the first-hop weight added to rest row k, and fixed the
	// distances over the first hops every strategy of i keeps.
	hop, fixed []float64
	d          []float64
	// The move base (moves.go): per-column best and second-best fold
	// values of the base strategy, the peer giving the best, the base's
	// degree and the mask its scores sum over.
	best, second []float64
	arg          []int32
	degree       int
	active       []bool
}

// NewDeviationBatch prepares batched deviation evaluation for peer i
// under profile p. It returns nil under congestion (candidate links
// shift in-degrees, re-weighting the whole graph) or when n exceeds the
// memory cap; callers must then fall back to DeviationEval.
//
// In a directed game, while a DynEval is attached (NewDynEval attaches
// itself) and its profile equals p, rest row k is the engine's own row
// k, read in place, unless a link of i is tight on it
// (DynEval.tightLink): a row on which no shortest path leaves i over
// one of its links is already d_{G−i}(k, ·), since removing arcs no
// shortest path uses changes no distance. Those rows, every row when no
// engine is attached or its profile differs, and every seeded row of an
// undirected game settle through fillRestRows.
func (ev *Evaluator) NewDeviationBatch(p Profile, i int) *DeviationBatch {
	n := ev.inst.N()
	if !ev.inst.SupportsBatchEval() {
		return nil
	}
	if i < 0 || i >= n {
		return nil
	}
	if cap(ev.batchFlat) < n*n {
		ev.batchFlat = make([]float64, n*n)
		ev.batchD = make([]float64, n)
		ev.batchFixed = make([]float64, n)
	}
	if cap(ev.batchRows) < n {
		ev.batchRows = make([][]float64, n)
	}
	dy := ev.dyn
	if dy != nil && !dy.p.Equal(p) {
		dy = nil
	}
	flat := ev.batchFlat[:n*n]
	rest := ev.batchRows[:n]
	srcs := ev.srcScratch[:0]
	for k := 0; k < n; k++ {
		switch {
		case k == i:
			rest[k] = nil // a self-link never shortens a path
		case dy != nil && !dy.tightLink(k, i):
			rest[k] = dy.Row(k)
		default:
			rest[k] = flat[k*n : (k+1)*n]
			srcs = append(srcs, int32(k))
		}
	}
	ev.srcScratch = srcs
	row := ev.inst.distRow(i)
	hop, seed := row, []float64(nil)
	if ev.inst.undirected {
		if len(ev.batchZero) < n {
			ev.batchZero = make([]float64, n)
		}
		hop, seed = ev.batchZero[:n], row
	}
	ev.fillRestRows(p, i, srcs, seed, rest)
	if dy != nil {
		dy.stats.RowsReused += n - 1 - len(srcs)
		dy.stats.RowsSettled += len(srcs)
	}
	fixed := ev.batchFixed[:n]
	for j := range fixed {
		fixed[j] = math.Inf(1)
	}
	if ev.inst.undirected {
		for v := 0; v < n; v++ {
			if v == i || !p.strategies[v].Contains(i) {
				continue
			}
			for j, x := range rest[v] {
				fixed[j] = min(fixed[j], x)
			}
		}
	}
	fixed[i] = 0
	ev.batch = DeviationBatch{ev: ev, i: i, rest: rest, hop: hop, fixed: fixed, d: ev.batchD[:n]}
	return &ev.batch
}

// fillRestRows writes into dst[k], for every source k in srcs, the
// distances from k over p with peer skip's own links removed, starting
// at seed[k] (nil: at 0; see Evaluator.settleRows). It is the one row
// fill of NewDeviationBatch, for every row with no attached engine and
// for the rows an engine's own row cannot stand in for. The rows fan
// across the attached pool when fanPool says so and settle on ev
// otherwise, and each lands in the slot indexed by its source, so dst
// is byte-identical at any width.
func (ev *Evaluator) fillRestRows(p Profile, skip int, srcs []int32, seed []float64, dst [][]float64) {
	// Each branch has its own visit literal: the pool's escapes to its
	// workers, and sharing it would put the sequential fill on the heap.
	if pl := ev.fanPool(len(srcs)); pl != nil {
		pl.settleRows(p, skip, Strategy{}, srcs, seed, func(_ *Evaluator, i int, d []float64) bool {
			copy(dst[srcs[i]], d)
			return true
		})
		return
	}
	ev.settleRows(p, skip, Strategy{}, srcs, seed, func(k int32, d []float64) bool {
		copy(dst[k], d)
		return true
	})
}

// fanPool returns the attached pool when a fill of m rows fans across
// it, or nil when the rows settle on ev: no pool, a single worker, or
// fewer than two rows, where the fan-out cannot pay.
func (ev *Evaluator) fanPool(m int) *Pool {
	if pl := ev.pool; pl != nil && pl.Workers() > 1 && m > 1 {
		return pl
	}
	return nil
}

// Eval returns peer i's enriched cost if it unilaterally switches to
// strategy alt while everyone else keeps playing the batch's profile.
// It is the batched equivalent of Evaluator.DeviationEval: == it in an
// undirected game, and in a directed one equal up to floating-point
// association (different summation order along paths), well within the
// oracles' tolerance.
func (b *DeviationBatch) Eval(alt Strategy) Eval {
	return b.ev.peerEvalFrom(b.fold(alt), b.i, alt.Count(), nil)
}

// fold computes the deviation distances d[j] = min(fixed[j], min_{k∈alt}
// (hop[k] + rest[k][j])) into the batch's scratch row, shared by Eval
// and EvalActive (active.go).
func (b *DeviationBatch) fold(alt Strategy) []float64 {
	d := b.d
	copy(d, b.fixed)
	alt.ForEach(func(k int) bool {
		rk := b.rest[k]
		if rk == nil {
			return true // k == i: a self-link never shortens a path
		}
		wk, rk := b.hop[k], rk[:len(d)]
		for j, x := range d {
			d[j] = min(x, wk+rk[j])
		}
		return true
	})
	return d
}

// maxSuffixMinFloats caps the memory of a suffix-min table (the
// branch-and-bound helper): beyond it the exact oracle runs unpruned,
// which at such sizes it effectively cannot anyway.
const maxSuffixMinFloats = 1 << 20

// suffixBound holds, for every suffix of the exact oracle's candidate
// list, the pointwise-minimal single-link deviation terms:
//
//	term[ci][j] = model term of (min(fixed[j], min over k ∈ candidates[ci:] of hop[k] + rest[k][j]))
//
// (term[len][j] = +Inf). Any strategy drawing links only from
// candidates[ci:] has a per-pair term of at least term[ci][j]: the
// model term is monotone in the distance, and division by a positive
// direct distance commutes with min exactly in floating point, so the
// bound composes with Eval's arithmetic without slack.
type suffixBound struct {
	term [][]float64
	// sum[ci] is the Eval-ordered sum of term[ci] (Σ_{j≠i}), an upper
	// bound on any bound partial that uses suffix ci: when link + sum[ci]
	// is still below the incumbent threshold, no pointwise min against a
	// prefix fold can reach it either, so the O(n) bound scan is skipped.
	sum []float64
	// single[ci] is the full Eval of the single-link strategy
	// {candidates[ci]} with the Link part left zero (the caller adds
	// α·1). Accumulated during the same pass that builds the rows, it
	// makes the exact oracle's cardinality-1 level scan-free.
	single []Eval
}

// suffixMins builds the suffixBound for the candidate list. Returns nil
// when the table would exceed the memory cap. The sums and single-link
// Evals run over the counted partners only (j ≠ i and active: the
// masked Eval order the exact search compares against), and so do the
// rows: their other columns are left unset, since nothing reads them.
func (b *DeviationBatch) suffixMins(candidates []int, counted []bool) *suffixBound {
	n := len(b.d)
	m := len(candidates)
	if (m+1)*n > maxSuffixMinFloats {
		return nil
	}
	ev := b.ev
	if cap(ev.suffixFlat) < (m+1)*n {
		ev.suffixFlat = make([]float64, (m+1)*n)
	}
	flat := ev.suffixFlat[:(m+1)*n]
	if cap(ev.suffixRows) < m+1 {
		ev.suffixRows = make([][]float64, m+1)
	}
	out := ev.suffixRows[:m+1]
	if cap(ev.suffixSums) < m+1 {
		ev.suffixSums = make([]float64, m+1)
	}
	sums := ev.suffixSums[:m+1]
	if cap(ev.suffixSingle) < m {
		ev.suffixSingle = make([]Eval, m)
	}
	single := ev.suffixSingle[:m]
	last := flat[m*n:]
	for j := range last {
		last[j] = math.Inf(1)
	}
	out[m] = last
	fixed, row, counted := b.fixed[:n], ev.inst.distRow(b.i)[:n], counted[:n]
	stretch := ev.inst.model == StretchModel
	sums[m] = math.Inf(1)
	for ci := m - 1; ci >= 0; ci-- {
		k := candidates[ci]
		cur, prev := flat[ci*n:(ci+1)*n], out[ci+1][:n]
		rk, wk := b.rest[k][:n], b.hop[k] // a candidate is never i, so its rest row exists
		se, acc := Eval{}, 0.0
		// This pass sums single[ci] itself, fused with the row build,
		// rather than through the one fold (boundedEval), which would
		// need each single-link row written out and read again. Its
		// terms lie in [0, +Inf], so boundedEval's rule gives its sums
		// the same bits.
		for j, f := range fixed {
			if !counted[j] {
				continue
			}
			t := min(f, wk+rk[j])
			if stretch {
				t /= row[j]
			}
			if math.IsInf(t, 1) {
				se.Unreachable++
			} else {
				se.FiniteTerm += t
			}
			cur[j] = min(prev[j], t)
			acc += cur[j]
		}
		se.Cost.Term = se.FiniteTerm
		if se.Unreachable > 0 {
			se.Cost.Term = math.Inf(1)
		}
		sums[ci] = acc
		single[ci] = se
		out[ci] = cur
	}
	return &suffixBound{term: out, sum: sums, single: single}
}
