// Package bestresponse provides deviation oracles for the topology game:
// given a profile and a peer, find a (or the) strategy minimizing that
// peer's cost while everyone else stays put.
//
// The exact oracle makes equilibrium claims rigorous: it enumerates
// candidate neighbor subsets in increasing cardinality and prunes with
// the model lower bound (every pair costs at least its lower-bound term,
// so once α·k + Σ lower bounds exceeds the incumbent, no strategy of
// cardinality ≥ k can win). For moderate α this verifies exact Nash
// equilibria up to n ≈ 30. The local-search and greedy oracles scale
// further but certify only add/drop/swap stability.
//
// Strategies with unreachable peers have infinite paper cost; oracles
// order them by core.Eval's lexicographic comparison (reach more peers
// first, then pay less), so hill climbing makes progress even from
// disconnected starting profiles.
package bestresponse

import (
	"errors"
	"fmt"

	"selfishnet/internal/bitset"
	"selfishnet/internal/core"
)

// Tolerance is the default absolute cost-improvement tolerance: cost
// differences at or below it are treated as ties (floating-point noise).
const Tolerance = 1e-9

// ErrBudgetExceeded is returned by the exact oracle when the evaluation
// budget runs out before the search space is exhausted.
var ErrBudgetExceeded = errors.New("bestresponse: evaluation budget exceeded")

// Result is a best response: the strategy found and its enriched cost.
type Result struct {
	Strategy core.Strategy
	Eval     core.Eval
}

// Oracle computes a best (or good) response for one peer.
type Oracle interface {
	// BestResponse returns the best strategy for peer i found by this
	// oracle, assuming all other peers play as in p. The current
	// strategy of i is always a candidate, so the result never costs
	// more than staying put.
	BestResponse(ev *core.Evaluator, p core.Profile, i int) (Result, error)
	// Clone returns an independent oracle with the same configuration
	// and fresh scratch state, so concurrent replica runs never share
	// oracle-internal state (the deviation-oracle mirror of
	// dynamics.Policy.Clone).
	Clone() Oracle
	// Name identifies the oracle in tables.
	Name() string
}

// Exact enumerates all strategies (subsets of peers) with cardinality
// pruning. It is exact: the returned strategy globally minimizes peer
// i's cost.
type Exact struct {
	// MaxEvaluations bounds the number of candidate strategies scored;
	// 0 means unlimited. When exceeded, BestResponse returns
	// ErrBudgetExceeded.
	MaxEvaluations int

	lastEvals int
}

var _ Oracle = (*Exact)(nil)

// Name returns "exact".
func (*Exact) Name() string { return "exact" }

// Clone returns an exact oracle with the same budget and fresh
// evaluation statistics.
func (o *Exact) Clone() Oracle { return &Exact{MaxEvaluations: o.MaxEvaluations} }

// Evaluations returns how many candidate strategies the most recent
// BestResponse call resolved — scored directly, or eliminated in bulk
// by the subtree lower bound, which settles a candidate's fate without
// evaluating it. The count equals what the pre-pruning enumeration
// scored one by one, so it remains the measure of what cardinality
// pruning saves over the unpruned 2^(n-1).
func (o *Exact) Evaluations() int { return o.lastEvals }

// BestResponse implements Oracle exactly.
//
// The search enumerates candidate link sets by cardinality. On
// instances that admit the batched deviation evaluator, directed or
// undirected, it runs core.DeviationBatch.ExactSearch — sharing fold
// prefixes along the backtracking tree — which prunes with two exact
// devices on top of the classic cardinality bound: candidates are
// scored with early abandonment against the incumbent, and whole
// subtrees die when the suffix-min lower bound proves no completion can
// beat the incumbent. Both devices are floating-point-exact, so the
// returned Result is bit-identical to the unpruned enumeration and
// Evaluations() counts bulk-pruned candidates as resolved. Where no
// batch exists (γ>0, n>2048) it scans candidate by candidate.
func (o *Exact) BestResponse(ev *core.Evaluator, p core.Profile, i int) (Result, error) {
	inst := ev.Instance()
	n := inst.N()
	if i < 0 || i >= n {
		return Result{}, fmt.Errorf("bestresponse: peer %d out of range [0,%d)", i, n)
	}
	if b := ev.NewDeviationBatch(p, i); b != nil {
		return o.bestResponseStack(ev, b, p, i)
	}
	return o.bestResponseScan(ev, p, i)
}

// bestResponseStack delegates the batch-backed search to the fused
// core kernel (see core.DeviationBatch.ExactSearch), which owns the
// prefix-sharing folds, the suffix-min subtree bound and the bounded
// candidate evaluation. This function supplies the model lower-bound
// sum and maps budget/count semantics onto the Oracle contract.
func (o *Exact) bestResponseStack(ev *core.Evaluator, b *core.DeviationBatch, p core.Profile, i int) (Result, error) {
	out := b.ExactSearch(p.Strategy(i), nil, TermLowerBound(ev.Instance(), i, nil), Tolerance, o.MaxEvaluations)
	o.lastEvals = out.Resolved
	if out.OverBudget {
		return Result{}, ErrBudgetExceeded
	}
	return Result{Strategy: out.Strategy, Eval: out.Eval}, nil
}

// bestResponseScan is the fallback search where no deviation batch
// exists (γ>0, n>2048): the classic per-candidate enumeration over the
// SSSP scorer.
func (o *Exact) bestResponseScan(ev *core.Evaluator, p core.Profile, i int) (Result, error) {
	inst := ev.Instance()
	n := inst.N()
	sumLB := TermLowerBound(inst, i, nil)

	budget := o.MaxEvaluations
	scorer := func(s core.Strategy) core.Eval { return ev.DeviationEval(p, i, s) }
	best := Result{Strategy: p.Strategy(i).Clone(), Eval: scorer(p.Strategy(i))}
	score := func(s core.Strategy) (core.Eval, bool) {
		o.lastEvals++
		if budget > 0 && o.lastEvals > budget {
			return core.Eval{}, false
		}
		return scorer(s), true
	}

	candidates := make([]int, 0, n-1)
	for j := 0; j < n; j++ {
		if j != i {
			candidates = append(candidates, j)
		}
	}

	// The full strategy is the first candidate scored, which any budget
	// admits.
	o.lastEvals = 1
	full := bitset.FromSlice(candidates)
	if c := scorer(full); c.Better(best.Eval, Tolerance) {
		best = Result{Strategy: full, Eval: c}
	}

	cur := bitset.New(n)
	var rec func(start, remaining int) bool // returns false over budget
	rec = func(start, remaining int) bool {
		if remaining == 0 {
			c, ok := score(cur)
			if !ok {
				return false
			}
			if c.Better(best.Eval, Tolerance) {
				best = Result{Strategy: cur.Clone(), Eval: c}
			}
			return true
		}
		for ci := start; ci <= len(candidates)-remaining; ci++ {
			cur.Add(candidates[ci])
			ok := rec(ci+1, remaining-1)
			cur.Remove(candidates[ci])
			if !ok {
				return false
			}
		}
		return true
	}

	alpha := inst.Alpha()
	for k := 0; k <= len(candidates); k++ {
		if alpha > 0 && best.Eval.Unreachable == 0 &&
			alpha*float64(k)+sumLB >= best.Eval.Key()-Tolerance {
			break
		}
		if k == len(candidates) {
			continue
		}
		if !rec(0, k) {
			return Result{}, ErrBudgetExceeded
		}
	}
	return best, nil
}

// LocalSearch improves the current strategy by best single add, drop, or
// swap moves until none improves. The result is add/drop/swap stable but
// not necessarily a global best response.
type LocalSearch struct {
	// MaxIterations bounds improvement rounds; 0 means n²+n+1 rounds,
	// enough for any practical run of strictly improving single moves.
	MaxIterations int
}

var _ Oracle = (*LocalSearch)(nil)

// Name returns "local-search".
func (*LocalSearch) Name() string { return "local-search" }

// Clone returns a local-search oracle with the same iteration bound.
func (o *LocalSearch) Clone() Oracle { return &LocalSearch{MaxIterations: o.MaxIterations} }

// BestResponse implements Oracle via hill climbing.
func (o *LocalSearch) BestResponse(ev *core.Evaluator, p core.Profile, i int) (Result, error) {
	n := ev.Instance().N()
	if i < 0 || i >= n {
		return Result{}, fmt.Errorf("bestresponse: peer %d out of range [0,%d)", i, n)
	}
	return HillClimb(n, i, p.Strategy(i), movesFor(ev, p, i), nil, o.MaxIterations), nil
}

// HillClimb is LocalSearch's add/drop/swap loop for peer i among n:
// from start it moves to the best single add, drop or swap that m
// rates Better (ties to the first found), and stops when none does or
// after maxIter rounds (≤ 0 means n²+n+1). A non-nil active mask
// limits every move to peers j with active[j], so a start that links
// active peers only ends linking active peers only; nil means every
// peer is active. The mask picks candidates only: which partners an
// Eval sums over is m's business. start is copied, not modified.
func HillClimb(n, i int, start core.Strategy, m *MoveScorer, active []bool, maxIter int) Result {
	if maxIter <= 0 {
		maxIter = n*n + n + 1
	}
	curEval := m.reset(n, start)
	for iter := 0; iter < maxIter; iter++ {
		drop, add := -1, -1
		bestEval := curEval
		try := func(j, k int) {
			if c, ok := m.better(j, k, bestEval); ok {
				drop, add, bestEval = j, k, c
			}
		}
		for j := 0; j < n; j++ {
			if j == i || (active != nil && !active[j]) {
				continue
			}
			if !m.cur.Contains(j) {
				try(-1, j)
				continue
			}
			try(j, -1)
			// Swap j for each absent k.
			for k := 0; k < n; k++ {
				if k != i && (active == nil || active[k]) && !m.cur.Contains(k) {
					try(j, k)
				}
			}
		}
		if drop < 0 && add < 0 {
			break
		}
		m.accept(drop, add)
		curEval = bestEval
	}
	return Result{Strategy: m.cur, Eval: curEval}
}

// TermLowerBound sums the cost model's per-pair lower bounds over peer
// i's partners j ≠ i with active[j] (nil: every peer) — the bound on
// i's cost term that the exact searches prune with (α·k + the sum
// bounds every strategy of cardinality k).
func TermLowerBound(inst *core.Instance, i int, active []bool) float64 {
	sum := 0.0
	for j := 0; j < inst.N(); j++ {
		if j != i && (active == nil || active[j]) {
			sum += inst.Model().LowerBound(inst.Distance(i, j))
		}
	}
	return sum
}

// Greedy builds a response from scratch: starting from the empty
// strategy it repeatedly adds the link with the largest cost reduction,
// then drops links while dropping helps. Fast and scale-friendly; used
// as a constructive heuristic and an ablation baseline.
type Greedy struct{}

var _ Oracle = (*Greedy)(nil)

// Name returns "greedy".
func (*Greedy) Name() string { return "greedy" }

// Clone returns a fresh greedy oracle (stateless).
func (*Greedy) Clone() Oracle { return &Greedy{} }

// BestResponse implements Oracle greedily.
func (*Greedy) BestResponse(ev *core.Evaluator, p core.Profile, i int) (Result, error) {
	n := ev.Instance().N()
	if i < 0 || i >= n {
		return Result{}, fmt.Errorf("bestresponse: peer %d out of range [0,%d)", i, n)
	}
	return greedy(n, i, p.Strategy(i), movesFor(ev, p, i)), nil
}

// greedy is Greedy's add-then-prune build for peer i among n over the
// move scorer m, falling back to incumbent when that scores Better.
func greedy(n, i int, incumbent core.Strategy, m *MoveScorer) Result {
	curEval := m.reset(n, core.Strategy{})
	// Additive phase.
	for {
		bestJ := -1
		bestEval := curEval
		for j := 0; j < n; j++ {
			if j == i || m.cur.Contains(j) {
				continue
			}
			if c, ok := m.better(-1, j, bestEval); ok {
				bestJ, bestEval = j, c
			}
		}
		if bestJ < 0 {
			break
		}
		m.accept(-1, bestJ)
		curEval = bestEval
	}
	// Pruning phase.
	for {
		bestJ := -1
		bestEval := curEval
		m.cur.ForEach(func(j int) bool {
			if c, ok := m.better(j, -1, bestEval); ok {
				bestJ, bestEval = j, c
			}
			return true
		})
		if bestJ < 0 {
			break
		}
		m.accept(bestJ, -1)
		curEval = bestEval
	}
	// Never return something worse than the current strategy.
	if e := m.eval(incumbent); e.Better(curEval, Tolerance) {
		return Result{Strategy: incumbent.Clone(), Eval: e}
	}
	return Result{Strategy: m.cur, Eval: curEval}
}

// Improvement returns how much peer i can gain (cost decrease) by
// deviating according to the oracle, together with the best deviation
// found. Gains at or below Tolerance mean the oracle found no
// improvement; +Inf means the deviation restores reachability.
func Improvement(ev *core.Evaluator, p core.Profile, i int, o Oracle) (gain float64, dev Result, err error) {
	cur := ev.PeerEval(p, i)
	res, err := o.BestResponse(ev, p, i)
	if err != nil {
		return 0, Result{}, err
	}
	if res.Strategy.Equal(p.Strategy(i)) {
		// Staying put is by definition a zero-gain deviation. Without
		// this guard a true equilibrium could report association-noise
		// gains, because oracles score the incumbent through the batch
		// evaluator while cur comes from a full SSSP.
		return 0, res, nil
	}
	return cur.Gain(res.Eval), res, nil
}
