package core

import "math"

// maxBatchPeers caps the O(n²) distance table a DeviationBatch holds
// (2048 peers ≈ 32 MB of float64), so batching never dominates memory on
// large instances; above the cap oracles fall back to per-candidate SSSP.
const maxBatchPeers = 2048

// SupportsBatchEval reports whether the instance admits batched
// deviation evaluation: directed, congestion-free and within the memory
// cap (see NewDeviationBatch for why the other regimes cannot use the
// decomposition). Callers that provision resources for batch
// construction — e.g. the dynamics layer's intra-step worker pool —
// gate on it.
func (in *Instance) SupportsBatchEval() bool {
	return !in.undirected && in.congestionGamma == 0 && in.n <= maxBatchPeers
}

// DeviationBatch evaluates many candidate strategies for one fixed peer
// far faster than per-candidate SSSP. It exploits the structure of a
// unilateral deviation in the directed, congestion-free game: peer i's
// outgoing links only matter as the first hop of a path from i (positive
// weights mean shortest paths never revisit i), so with
//
//	rest[k][j] = d_{G−i}(k, j)   (distances with i's out-arcs removed)
//
// the deviation distances are d[j] = min_{k∈s} (d(i,k) + rest[k][j]),
// an O(|s|·n) fold per candidate instead of a full Dijkstra. The exact
// best-response oracle scores hundreds of candidates per call, so the
// n−1 upfront SSSPs amortize immediately. A candidate one add, drop or
// swap away from a base strategy costs O(n) on the move base
// (moves.go), which local search and greedy score with.
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
	d    []float64
	// The move base (moves.go): per-column best and second-best fold
	// values of the base strategy, the peer giving the best, the base's
	// degree and the mask its scores sum over.
	best, second []float64
	arg          []int32
	degree       int
	active       []bool
}

// NewDeviationBatch prepares batched deviation evaluation for peer i
// under profile p. It returns nil when the instance does not admit the
// decomposition — undirected links (i's arcs serve other peers' paths
// too) or congestion (candidate links shift in-degrees, re-weighting the
// whole graph) — or when n exceeds the memory cap; callers must then
// fall back to DeviationEval.
//
// While a DynEval is attached (NewDynEval attaches itself) and its
// profile equals p, rest row k is the engine's own row k, read in place,
// unless a link of i is tight on it (DynEval.tightLink): a row on which
// no shortest path leaves i over one of its links is already
// d_{G−i}(k, ·), since removing arcs no shortest path uses changes no
// distance. Those rows, and every row when no engine is attached or its
// profile differs, settle through fillRestRows.
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
	ev.fillRestRows(p, i, srcs, rest)
	if dy != nil {
		dy.stats.RowsReused += n - 1 - len(srcs)
		dy.stats.RowsSettled += len(srcs)
	}
	ev.batch = DeviationBatch{ev: ev, i: i, rest: rest, d: ev.batchD[:n]}
	return &ev.batch
}

// fillRestRows writes into dst[k], for every source k in srcs, the
// distances d_{G−skip}(k, ·): SSSP from k over p with peer skip's
// out-arcs removed. It is the one row fill of NewDeviationBatch, for
// every row with no attached engine and for the rows an engine's own
// row cannot stand in for. The rows fan across the attached pool when
// fanPool says so and settle on ev otherwise, and each lands in the
// slot indexed by its source, so dst is byte-identical at any width.
func (ev *Evaluator) fillRestRows(p Profile, skip int, srcs []int32, dst [][]float64) {
	// Each branch has its own visit literal: the pool's escapes to its
	// workers, and sharing it would put the sequential fill on the heap.
	if pl := ev.fanPool(len(srcs)); pl != nil {
		pl.settleRows(p, skip, Strategy{}, srcs, 0, func(_ *Evaluator, i int, d []float64) bool {
			copy(dst[srcs[i]], d)
			return true
		})
		return
	}
	ev.settleRows(p, skip, Strategy{}, srcs, 0, func(k int32, d []float64) bool {
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
// It is the batched equivalent of Evaluator.DeviationEval; results agree
// with it up to floating-point association (different summation order
// along paths), well within the oracles' tolerance.
func (b *DeviationBatch) Eval(alt Strategy) Eval {
	return b.ev.peerEvalFrom(b.fold(alt), b.i, alt.Count())
}

// fold computes the deviation distances d[j] = min_{k∈alt} (d(i,k) +
// rest[k][j]) into the batch's scratch row, shared by Eval and
// EvalActive (active.go).
func (b *DeviationBatch) fold(alt Strategy) []float64 {
	d := b.d
	n := len(d)
	for j := range d {
		d[j] = math.Inf(1)
	}
	d[b.i] = 0
	row := b.ev.inst.distRow(b.i)
	alt.ForEach(func(k int) bool {
		rk := b.rest[k]
		if rk == nil {
			return true // k == i: a self-link never shortens a path
		}
		wk := row[k]
		for j := 0; j < n; j++ {
			if v := wk + rk[j]; v < d[j] {
				d[j] = v
			}
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
//	term[ci][j] = model term of (min over k ∈ candidates[ci:] of d(i,k) + rest[k][j])
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
// when the model is not a built-in monotone one (no sound bound) or the
// table would exceed the memory cap. A non-nil active mask restricts
// the sums and single-link Evals to active partners, matching the
// masked Eval order the active exact search compares against; the rows
// still fold all columns (unread inactive entries are harmless).
func (b *DeviationBatch) suffixMins(candidates []int, active []bool) *suffixBound {
	n := len(b.d)
	m := len(candidates)
	if !b.ev.builtinMonotoneModel() || (m+1)*n > maxSuffixMinFloats {
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
	row := ev.inst.distRow(b.i)
	stretch := ev.inst.modelKind == modelStretch
	sums[m] = math.Inf(1)
	for ci := m - 1; ci >= 0; ci-- {
		k := candidates[ci]
		cur := flat[ci*n : (ci+1)*n]
		prev := out[ci+1]
		rk := b.rest[k]
		var se Eval
		if rk == nil {
			copy(cur, prev)
			sums[ci] = sums[ci+1]
		} else {
			wk := row[k]
			acc := 0.0
			for j := 0; j < n; j++ {
				t := wk + rk[j]
				if stretch {
					t /= row[j]
				}
				counted := j != b.i && (active == nil || active[j])
				if counted {
					se.Cost.Term += t
					if math.IsInf(t, 1) {
						se.Unreachable++
					} else {
						se.FiniteTerm += t
					}
				}
				if prev[j] < t {
					t = prev[j]
				}
				cur[j] = t
				if counted {
					acc += t
				}
			}
			sums[ci] = acc
		}
		single[ci] = se
		out[ci] = cur
	}
	return &suffixBound{term: out, sum: sums, single: single}
}
