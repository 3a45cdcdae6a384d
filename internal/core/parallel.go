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

// settleRows is the pool's one claim-counter loop, the fan-out twin of
// Evaluator.settleRows on the slab path. Each worker prepares its own
// adjacency for p (peer override playing alt) on its first claim, then
// claims sources of srcs from a shared counter and hands visit its
// evaluator and the source's row, which visit must not retain. Workers
// run visit concurrently, so it may write only per-source slots; once
// it returns false, no worker claims another source. With one worker
// or at most one source the loop runs on the caller's goroutine.
func (pl *Pool) settleRows(p Profile, override int, alt Strategy, srcs []int32, visit func(ev *Evaluator, src int32, d []float64) bool) {
	var next atomic.Int64
	var stop atomic.Bool
	claim := func(ev *Evaluator) {
		prepared := false
		for !stop.Load() {
			idx := int(next.Add(1)) - 1
			if idx >= len(srcs) {
				return
			}
			if !prepared {
				ev.prepare(p, override, alt)
				prepared = true
			}
			src := srcs[idx]
			if !visit(ev, src, ev.ssspFrom(int(src))) {
				stop.Store(true)
			}
		}
	}
	if len(pl.evs) == 1 || len(srcs) <= 1 {
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

// PeerEvals returns every peer's enriched cost under p, in peer order.
func (pl *Pool) PeerEvals(p Profile) []Eval {
	out := make([]Eval, pl.Instance().N())
	pl.settleRows(p, -1, Strategy{}, pl.Instance().peers, func(ev *Evaluator, src int32, d []float64) bool {
		out[src] = ev.peerEvalFrom(d, int(src), p.OutDegree(int(src)))
		return true
	})
	return out
}

// SocialCost returns the decomposed social cost C(G) = α|E| + Σ terms,
// bit-identical to Evaluator.SocialCost (per-source costs are summed in
// source order).
func (pl *Pool) SocialCost(p Profile) Cost {
	total := Cost{}
	for _, e := range pl.PeerEvals(p) {
		total.Link += e.Cost.Link
		total.Term += e.Cost.Term
	}
	return total
}

// MaxTerm returns the largest pairwise term, as Evaluator.MaxTerm.
func (pl *Pool) MaxTerm(p Profile) float64 {
	perSource := make([]float64, pl.Instance().N())
	pl.settleRows(p, -1, Strategy{}, pl.Instance().peers, func(ev *Evaluator, src int32, d []float64) bool {
		perSource[src] = ev.inst.rowMaxTerm(d, int(src))
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
	pl.settleRows(p, -1, Strategy{}, pl.Instance().peers, func(_ *Evaluator, src int32, d []float64) bool {
		if !reachesAll(d, int(src)) {
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
	pl.settleRows(p, -1, Strategy{}, pl.Instance().peers, func(ev *Evaluator, src int32, d []float64) bool {
		out[src] = ev.inst.termRow(d, int(src))
		return true
	})
	return out
}
