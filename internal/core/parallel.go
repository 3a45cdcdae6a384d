package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool fans all-pairs evaluations (social cost, term matrices, max
// stretch, connectivity) out across a fixed set of per-goroutine
// evaluator clones. Each worker prepares its own adjacency for the
// profile and claims sources from a shared counter; per-source results
// land in slices indexed by source and are reduced in index order, so
// every result is bit-identical to the sequential Evaluator methods.
//
// The same claim loop carries the streamed path: SocialCostBanded
// builds a pool for each call of streamWidth workers — min(GOMAXPROCS,
// claims), capped by streamRowBudget — whose workers claim chunks of
// min(band, 64) sources on uniform metrics (one source otherwise) and
// fold each chunk's Evals from a hop-level table of min(band, 64)
// sources, which lives only for the call.
//
// A Pool is safe for use from one goroutine at a time (like an
// Evaluator); the concurrency is internal. The profile must not be
// mutated while a Pool method runs.
type Pool struct {
	evs []*Evaluator
}

// NewPool creates a pool of `workers` evaluators over the instance.
// workers <= 0 selects runtime.GOMAXPROCS(0).
func NewPool(inst *Instance, workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n := inst.N(); workers > n {
		workers = n
	}
	evs := make([]*Evaluator, workers)
	for i := range evs {
		evs[i] = NewEvaluator(inst)
	}
	return &Pool{evs: evs}
}

// Workers returns the pool's concurrency width.
func (pl *Pool) Workers() int { return len(pl.evs) }

// Instance returns the bound instance.
func (pl *Pool) Instance() *Instance { return pl.evs[0].inst }

// settleRows is the fan-out twin of Evaluator.settleRows: seed acts
// exactly as there. Each worker prepares its own adjacency for p (peer
// override playing alt) on its first claim, then claims one source at a
// time and hands visit its evaluator, the list index i of source
// srcs[i] and that source's row settled by ssspFrom, which visit must
// not retain. Workers run visit concurrently, so it may write only
// per-source slots; once it returns false, no worker claims again.
func (pl *Pool) settleRows(p Profile, override int, alt Strategy, srcs []int32, seed []float64, visit func(ev *Evaluator, i int, d []float64) bool) {
	pl.claims(len(srcs), 1, func(ev *Evaluator) { ev.prepare(p, override, alt) }, func(ev *Evaluator, lo, _ int) bool {
		return visit(ev, lo, ev.ssspFrom(int(srcs[lo]), seedOf(seed, srcs[lo])))
	})
}

// settleEvals is the fan-out twin of Evaluator.settleEvals: band acts
// exactly as there, and visit gets the list index i of source srcs[i]
// and its Eval, under the same rules as settleRows' visit.
//   - At band 0, and on heap and Dial instances at any band, it runs
//     settleRows and folds each row by peerEvalFrom.
//   - On the streamed path of a kernelBFS instance (band ≥ 1), each
//     worker prepares the CSR only and a claim is a chunk of
//     min(band, 64) sources, settled by foldChunk on the worker's own
//     scratch, so each worker holds at most min(band, 64) sources' hop
//     levels and no distance row.
func (pl *Pool) settleEvals(p Profile, override int, alt Strategy, srcs []int32, band int, visit func(i int, e Eval) bool) {
	if !pl.Instance().msbfsBand(band) {
		pl.settleRows(p, override, alt, srcs, nil, func(ev *Evaluator, i int, d []float64) bool {
			return visit(i, ev.peerEvalFrom(d, int(srcs[i]), int(ev.g.owned[srcs[i]]), nil))
		})
		return
	}
	prepare := func(ev *Evaluator) { ev.prepareWith(p, override, alt, false) }
	pl.claims(len(srcs), pl.Instance().claimSize(band), prepare, func(ev *Evaluator, lo, hi int) bool {
		return ev.foldChunk(srcs[lo:hi], func(k int, e Eval) bool { return visit(lo+k, e) })
	})
}

// claims is the pool's one claim-counter loop, behind both of its row
// loops: each worker claims list positions [lo, hi) of count, chunk at
// a time, from a shared counter and hands them to work, calling
// prepare on its evaluator before its first claim. Once work returns
// false no worker claims again. With one worker or at most one claim
// the loop runs on the caller's goroutine.
func (pl *Pool) claims(count, chunk int, prepare func(ev *Evaluator), work func(ev *Evaluator, lo, hi int) bool) {
	var next atomic.Int64
	var stop atomic.Bool
	claim := func(ev *Evaluator) {
		prepared := false
		for !stop.Load() {
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= count {
				return
			}
			if !prepared {
				prepare(ev)
				prepared = true
			}
			if !work(ev, lo, min(lo+chunk, count)) {
				stop.Store(true)
			}
		}
	}
	if len(pl.evs) == 1 || count <= chunk {
		claim(pl.evs[0])
		return
	}
	var wg sync.WaitGroup
	for _, ev := range pl.evs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim(ev)
		}()
	}
	wg.Wait()
}

// claimSize is the number of sources Pool.settleEvals hands a worker
// per claim at band: a chunk of min(band, 64) on the streamed path,
// one source otherwise.
func (in *Instance) claimSize(band int) int {
	if in.msbfsBand(band) {
		return min(band, 64)
	}
	return 1
}

// streamRowBudget bounds the bytes of hop levels that the workers of
// one streamed fold hold together: each holds a level table of
// claimSize(band)·n uint32s, so a wide machine at large n folds on
// fewer workers than it has cores (32 at n = 65536 and band 64), and
// never on fewer than one.
const streamRowBudget = 512 << 20

// streamWidth returns the width of the streamed social-cost fold at
// band ≥ 1: min(GOMAXPROCS, claims), where claims counts the claims of
// claimSize(band) sources that cover the peers, capped so the workers'
// level tables (4·claimSize(band)·n bytes each) fit streamRowBudget.
// The slab path (band 0) is not fanned out here, so its width is 1.
func (in *Instance) streamWidth(band int) int {
	if band < 1 {
		return 1
	}
	c, n := in.claimSize(band), in.N()
	return max(1, min(runtime.GOMAXPROCS(0), (n+c-1)/c, streamRowBudget/(4*c*n)))
}

// SocialCost returns the decomposed social cost C(G) = α|E| + Σ terms,
// bit-identical to Evaluator.SocialCost (per-source costs are summed in
// source order).
func (pl *Pool) SocialCost(p Profile) Cost { return pl.socialCost(p, 0) }

// socialCost folds every peer's cost at band, as Evaluator.socialCost:
// the workers write one Cost slot per peer and the slots are summed in
// peer order, so the fold is the same sequence of additions at every
// band and every width.
func (pl *Pool) socialCost(p Profile, band int) Cost {
	costs := make([]Cost, pl.Instance().N())
	pl.settleEvals(p, -1, Strategy{}, pl.Instance().peers, band, func(i int, e Eval) bool {
		costs[i] = e.Cost
		return true
	})
	total := Cost{}
	for _, c := range costs {
		total.Link += c.Link
		total.Term += c.Term
	}
	return total
}

// MaxTerm returns the largest pairwise term, as Evaluator.MaxTerm.
func (pl *Pool) MaxTerm(p Profile) float64 {
	perSource := make([]float64, pl.Instance().N())
	pl.settleRows(p, -1, Strategy{}, pl.Instance().peers, nil, func(ev *Evaluator, i int, d []float64) bool {
		perSource[i] = ev.inst.rowMaxTerm(d, i)
		return true
	})
	maxT := 0.0
	for _, t := range perSource {
		if t > maxT {
			maxT = t
		}
	}
	return maxT
}

// Connected reports whether every peer reaches every other along the
// directed overlay, as Evaluator.Connected.
func (pl *Pool) Connected(p Profile) bool {
	var disconnected atomic.Bool
	pl.settleRows(p, -1, Strategy{}, pl.Instance().peers, nil, func(_ *Evaluator, i int, d []float64) bool {
		if !reachesAll(d, i) {
			disconnected.Store(true)
			return false
		}
		return true
	})
	return !disconnected.Load()
}

// TermMatrix returns the per-pair cost terms, as Evaluator.TermMatrix.
func (pl *Pool) TermMatrix(p Profile) [][]float64 {
	out := make([][]float64, pl.Instance().N())
	pl.settleRows(p, -1, Strategy{}, pl.Instance().peers, nil, func(ev *Evaluator, i int, d []float64) bool {
		out[i] = ev.inst.termRow(d, i)
		return true
	})
	return out
}
