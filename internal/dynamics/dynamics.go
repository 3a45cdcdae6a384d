// Package dynamics runs best-response dynamics: starting from some
// profile, repeatedly let one peer switch to a better strategy until no
// peer can improve (a Nash equilibrium) or a state repeats.
//
// The paper's Section 5 shows that for the instance I_k these dynamics
// never stabilize; the engine's cycle detection turns that claim into a
// measurement. A repeated (profile, scheduler-state) pair under a
// deterministic policy is a proof that the run loops forever.
//
// One step loop serves two engines. The fresh engine evaluates peers
// from scratch each step; the incremental engine reads them off a
// core.DynEval and keeps best responses across moves. They differ only
// in where a peer's current eval and its environment version come from
// (see Run), so their trajectories are byte-identical.
//
// The replica driver ReplicasContext, and Converge on top of it, fan
// independent runs across a worker pool of evaluator clones, governed
// by Config.Parallelism. Per-replica RNG streams and starting profiles
// are pre-drawn sequentially and outcomes reduced in replica order, so
// aggregates are bit-identical at every parallelism width;
// WorstConverged picks the Price-of-Anarchy winner from them.
package dynamics

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"selfishnet/internal/bestresponse"
	"selfishnet/internal/core"
	"selfishnet/internal/rng"
)

// Policy selects which improving peer moves next.
type Policy interface {
	// PickNext returns the next peer that should move, or -1 when no
	// peer can improve by more than tol. gain(i) returns peer i's best
	// available improvement (expensive; policies should call it
	// sparingly).
	PickNext(n int, gain func(int) float64, tol float64, r *rng.RNG) int
	// StateKey exposes scheduler-internal state so the engine can hash
	// it alongside the profile for sound cycle detection.
	StateKey() uint64
	// Deterministic reports whether the policy ignores the RNG; only
	// then does a repeated state prove an infinite cycle.
	Deterministic() bool
	// Reset clears internal state before a run.
	Reset()
	// Clone returns an independent policy with the same configuration
	// and fresh state, so concurrent replica runs never share scheduler
	// state.
	Clone() Policy
	// Name identifies the policy in tables.
	Name() string
}

// RoundRobin cycles through peers in index order, resuming after the
// last mover. The classic fair activation schedule.
type RoundRobin struct {
	ptr int
}

var _ Policy = (*RoundRobin)(nil)

// Name returns "round-robin".
func (*RoundRobin) Name() string { return "round-robin" }

// Deterministic returns true.
func (*RoundRobin) Deterministic() bool { return true }

// Reset rewinds the pointer to peer 0.
func (p *RoundRobin) Reset() { p.ptr = 0 }

// Clone returns a fresh round-robin scheduler.
func (*RoundRobin) Clone() Policy { return &RoundRobin{} }

// StateKey returns the scan pointer.
func (p *RoundRobin) StateKey() uint64 { return uint64(p.ptr) }

// PickNext scans from the pointer for the first improving peer.
func (p *RoundRobin) PickNext(n int, gain func(int) float64, tol float64, _ *rng.RNG) int {
	for k := 0; k < n; k++ {
		i := (p.ptr + k) % n
		if gain(i) > tol {
			p.ptr = (i + 1) % n
			return i
		}
	}
	return -1
}

// FirstImproving always scans peers 0..n-1 and picks the first that can
// improve. Stateless and deterministic.
type FirstImproving struct{}

var _ Policy = (*FirstImproving)(nil)

// Name returns "first-improving".
func (FirstImproving) Name() string { return "first-improving" }

// Deterministic returns true.
func (FirstImproving) Deterministic() bool { return true }

// Reset is a no-op.
func (FirstImproving) Reset() {}

// Clone returns the policy itself (stateless).
func (FirstImproving) Clone() Policy { return FirstImproving{} }

// StateKey returns 0 (stateless).
func (FirstImproving) StateKey() uint64 { return 0 }

// PickNext scans from peer 0.
func (FirstImproving) PickNext(n int, gain func(int) float64, tol float64, _ *rng.RNG) int {
	for i := 0; i < n; i++ {
		if gain(i) > tol {
			return i
		}
	}
	return -1
}

// MaxGain picks the peer with the largest available improvement
// (lowest index on ties). Stateless and deterministic, so repeated
// profiles prove cycles.
type MaxGain struct{}

var _ Policy = (*MaxGain)(nil)

// Name returns "max-gain".
func (MaxGain) Name() string { return "max-gain" }

// Deterministic returns true.
func (MaxGain) Deterministic() bool { return true }

// Reset is a no-op.
func (MaxGain) Reset() {}

// Clone returns the policy itself (stateless).
func (MaxGain) Clone() Policy { return MaxGain{} }

// StateKey returns 0 (stateless).
func (MaxGain) StateKey() uint64 { return 0 }

// PickNext computes every peer's gain and returns the argmax.
func (MaxGain) PickNext(n int, gain func(int) float64, tol float64, _ *rng.RNG) int {
	best, bestGain := -1, tol
	for i := 0; i < n; i++ {
		if g := gain(i); g > bestGain {
			best, bestGain = i, g
		}
	}
	return best
}

// RandomImproving activates a uniformly random improving peer each step.
// Nondeterministic: repeated states do not prove infinite cycles.
type RandomImproving struct{}

var _ Policy = (*RandomImproving)(nil)

// Name returns "random".
func (RandomImproving) Name() string { return "random" }

// Deterministic returns false.
func (RandomImproving) Deterministic() bool { return false }

// Reset is a no-op.
func (RandomImproving) Reset() {}

// Clone returns the policy itself (stateless; randomness comes from the
// per-run RNG).
func (RandomImproving) Clone() Policy { return RandomImproving{} }

// StateKey returns 0.
func (RandomImproving) StateKey() uint64 { return 0 }

// PickNext scans peers in a random order and picks the first improving.
func (RandomImproving) PickNext(n int, gain func(int) float64, tol float64, r *rng.RNG) int {
	if r == nil {
		return FirstImproving{}.PickNext(n, gain, tol, nil)
	}
	for _, i := range r.Perm(n) {
		if gain(i) > tol {
			return i
		}
	}
	return -1
}

// StepEvent describes one applied strategy change.
type StepEvent struct {
	Step int
	Peer int
	Old  core.Eval
	New  core.Eval
	// Profile is a snapshot of the profile after the move. The engine
	// shares this clone with its cycle-detection history, so treat it as
	// read-only; Clone it before mutating.
	Profile core.Profile
}

// Config parameterizes a dynamics run.
type Config struct {
	// Oracle computes deviations (default bestresponse.Exact).
	Oracle bestresponse.Oracle
	// Policy selects movers (default RoundRobin).
	Policy Policy
	// Tol is the improvement threshold (default bestresponse.Tolerance).
	Tol float64
	// MaxSteps bounds applied moves (default 10000).
	MaxSteps int
	// Rand feeds randomized policies; may be nil for deterministic ones.
	Rand *rng.RNG
	// DetectCycles enables state hashing and exact repeat verification.
	DetectCycles bool
	// OnStep, when non-nil, receives every applied move.
	OnStep func(StepEvent)
	// Parallelism bounds how many replica runs ReplicasContext and
	// Converge execute concurrently (each on its own evaluator clone).
	// 0 selects runtime.GOMAXPROCS(0); 1 forces sequential execution.
	// Results are bit-identical at every width: per-replica RNG streams
	// and starting profiles are drawn sequentially up front, and
	// outcomes are aggregated in replica order. A non-nil OnStep forces
	// sequential execution so callbacks never run concurrently. Single
	// runs (Run) are unaffected.
	Parallelism int
	// BatchWorkers is the intra-step parallelism of deviation-batch
	// construction: the n−1 rest-SSSP rows behind each best-response
	// oracle call fan across a core.Pool of this many evaluator clones.
	// 0 selects runtime.GOMAXPROCS(0) when n ≥ BatchParallelMinPeers and
	// sequential below; 1 forces sequential. Rows land in slots indexed
	// by source, so oracle answers — and therefore trajectories — are
	// byte-identical at any width. Parallel replica fan-out
	// (ReplicasContext or Converge with more than one worker) forces
	// per-run sequential batches so the two levels never multiply.
	BatchWorkers int
	// ForceFresh selects the fresh engine: peer evals come from
	// Evaluator.PeerEval and every cached best response expires at each
	// move. Trajectories are byte-identical either way (the incremental
	// engine's invalidation is conservative-sound, a mover picked from a
	// persisted gain is re-validated with a fresh oracle call, and every
	// Converged=true result is certified by a full fresh sweep); the
	// switch exists as an escape hatch and for differential testing.
	ForceFresh bool
	// ForceIncremental selects the incremental engine regardless of
	// size. By default the engine engages at n ≥ IncrementalMinPeers:
	// below that the per-move bookkeeping (all-source distance deltas,
	// rest-row invalidation) costs more than the SSSPs it saves.
	// ForceFresh wins when both are set.
	ForceIncremental bool
}

// Result summarizes a dynamics run.
type Result struct {
	// Final is the last profile (an equilibrium iff Converged).
	Final core.Profile
	// Converged is true when no peer could improve.
	Converged bool
	// Steps is the number of strategy changes applied.
	Steps int
	// CycleDetected is true when a (profile, scheduler-state) pair
	// repeated. CycleLength is the number of steps between repeats.
	CycleDetected bool
	CycleLength   int
	// CycleProven is true when the cycle was found under a
	// deterministic policy, making the repeat a proof of divergence.
	CycleProven bool
	// CycleProfiles holds the distinct profiles along the detected
	// cycle, in order (only when DetectCycles).
	CycleProfiles []core.Profile
	// CacheStats reports what the incremental engine's persistent batch
	// store saved (zero value for ForceFresh runs and regimes without a
	// store). Purely informational: it never differs across equal
	// trajectories' observable results.
	CacheStats core.BatchCacheStats
	// FinalCost is the social cost of Final, when the engine had it for
	// free (the incremental engine's distance rows cover the final
	// profile). Bit-identical to Evaluator.SocialCost(Final); consumers
	// (WorstConverged) recompute when FinalCostOK is false.
	FinalCost   core.Cost
	FinalCostOK bool
}

// ErrNoProgress is returned if a policy returns a peer whose oracle
// finds no improvement (a policy bug or an inconsistent tolerance).
var ErrNoProgress = errors.New("dynamics: selected peer has no improving deviation")

// Run executes best-response dynamics from the start profile. The start
// profile is not mutated.
//
// Both engines run one step loop. From IncrementalMinPeers peers up
// (or under Config.ForceIncremental) it runs incremental: a
// core.DynEval keeps every peer's shortest-path distances current
// across moves (so current evals cost O(n) instead of an SSSP), best
// responses persist across steps under conservative-sound invalidation
// keyed to the move deltas, and — where the instance admits batched
// deviation evaluation — the oracles' rest-SSSP rows persist too,
// re-settling only rows a move could have touched. Below the threshold
// (or under Config.ForceFresh) peer evals come from Evaluator.PeerEval
// and every move expires every cached best response. Safety is layered:
// invalidation only ever over-invalidates, a mover picked from a
// persisted gain is re-validated with a fresh oracle call before its
// move is applied, and a Converged=true result is certified by a fresh
// sweep of every peer. Trajectories are therefore byte-identical across
// the engines (asserted by the differential tests in
// incremental_test.go, with the oracle work pinned by
// enginework_test.go).
func Run(ev *core.Evaluator, start core.Profile, cfg Config) (Result, error) {
	return RunContext(context.Background(), ev, start, cfg)
}

// RunContext is Run with cooperative cancellation: ctx is checked once
// per dynamics step, so a deadline or disconnect lands mid-run instead
// of at run boundaries, and the error is ctx.Err() verbatim. A context
// that never fires leaves the trajectory byte-identical to Run — the
// checkpoint only ever returns early, it never perturbs state.
func RunContext(ctx context.Context, ev *core.Evaluator, start core.Profile, cfg Config) (Result, error) {
	n := ev.Instance().N()
	if start.N() != n {
		return Result{}, fmt.Errorf("dynamics: start profile has %d peers, instance has %d", start.N(), n)
	}
	if cfg.Oracle == nil {
		cfg.Oracle = &bestresponse.Exact{}
	}
	if cfg.Policy == nil {
		cfg.Policy = &RoundRobin{}
	}
	if cfg.Tol <= 0 {
		cfg.Tol = bestresponse.Tolerance
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 10_000
	}
	cfg.Policy.Reset()
	// The pool is only consulted through NewDeviationBatch, so regimes
	// that cannot serve a batch skip the attach entirely. A pool the
	// caller already attached (e.g. ReplicasContext reusing one across a
	// sequential replica loop) is kept as-is.
	if workers := batchWorkerCount(cfg.BatchWorkers, n); workers > 1 && ev.Pool() == nil && ev.Instance().SupportsBatchEval() {
		ev.AttachPool(core.NewPool(ev.Instance(), workers))
		defer ev.AttachPool(nil)
	}
	return run(ctx, ev, start, cfg, cfg.ForceFresh || (!cfg.ForceIncremental && n < IncrementalMinPeers))
}

// BatchParallelMinPeers is the default size threshold for intra-step
// parallel deviation-batch construction (Config.BatchWorkers = 0): a
// batch build is n−1 independent SSSPs, and below a few hundred peers
// the fan-out overhead eats what the extra cores win. The switch is
// purely a performance heuristic — rows are reduced in source order,
// so results are byte-identical at any width.
const BatchParallelMinPeers = 256

// batchWorkerCount resolves Config.BatchWorkers against the peer count.
func batchWorkerCount(cfgWorkers, n int) int {
	switch {
	case cfgWorkers > 1:
		return cfgWorkers
	case cfgWorkers == 0 && n >= BatchParallelMinPeers:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// IncrementalMinPeers is the default size threshold for the incremental
// engine: measured on the benchmark suite, the per-move delta
// bookkeeping breaks even against from-scratch recomputation in the
// tens of peers and wins above (see PERFORMANCE.md). Both engines
// produce byte-identical trajectories, so the threshold is purely a
// performance heuristic; Config.ForceFresh / ForceIncremental pin the
// choice.
const IncrementalMinPeers = 64

// cycleVisit is one recorded (step, profile, scheduler-state) triple.
type cycleVisit struct {
	step    int
	profile core.Profile
	state   uint64
}

// cycleTracker detects repeated (profile, scheduler-state) pairs. Each
// step stores exactly one clone of the pre-move profile, shared between
// the hash bucket and the ordered trail (and, in the step loop, with the
// previous step's OnStep snapshot), so cycle detection costs one clone
// per step instead of two.
type cycleTracker struct {
	seen  map[uint64][]cycleVisit
	trail []core.Profile
}

func newCycleTracker() *cycleTracker {
	return &cycleTracker{
		seen:  make(map[uint64][]cycleVisit),
		trail: make([]core.Profile, 0, 64),
	}
}

// report fills res's cycle fields for a repeat of the visit at `first`
// observed again at `step`.
func (ct *cycleTracker) report(res *Result, p core.Profile, deterministic bool, first, step int) {
	res.CycleDetected = true
	res.CycleLength = step - first
	res.CycleProven = deterministic
	res.CycleProfiles = append(res.CycleProfiles, ct.trail[first:]...)
	res.Final = p
	res.Steps = step
}

// observe records snap — a clone of the current profile, treated as
// immutable from here on — for the given step, and reports the step of
// the first identical visit if this state repeats one.
func (ct *cycleTracker) observe(snap core.Profile, state uint64, step int) (int, bool) {
	key := snap.Hash() ^ mix(state)
	for _, v := range ct.seen[key] {
		if v.state == state && v.profile.Equal(snap) {
			return v.step, true
		}
	}
	ct.seen[key] = append(ct.seen[key], cycleVisit{step: step, profile: snap, state: state})
	ct.trail = append(ct.trail, snap)
	return 0, false
}

// run is the one best-response loop behind both engines (see Run). The
// engines differ only in two sources, chosen once on entry:
//
//   - a peer's current eval: ev.PeerEval, kept until the next move
//     (fresh), or the maintained distance rows of a core.DynEval
//     (incremental) — the same floating-point fixpoint a fresh SSSP
//     computes;
//   - a peer's environment version, which keys its cached best
//     response: BatchCache.PeerVersion where the DynEval has a batch
//     store, and otherwise a counter bumped on every move, which expires
//     every cached best response at each move.
//
// Mover re-validation and the convergence sweep re-ask the oracle only
// for entries not computed in the current step. Every entry a policy
// consults is computed in the current step unless a persisted version
// kept it alive, so in the fresh engine both cost nothing.
func run(ctx context.Context, ev *core.Evaluator, start core.Profile, cfg Config, fresh bool) (Result, error) {
	n := ev.Instance().N()
	p := start.Clone()
	res := Result{}

	moves := uint64(0)
	var dy *core.DynEval
	var cache *core.BatchCache
	var peerEval func(int) core.Eval
	if fresh {
		evals := make([]core.Eval, n)
		at := make([]uint64, n) // moves+1 when evals[i] was taken; 0 = never
		peerEval = func(i int) core.Eval {
			if at[i] != moves+1 {
				evals[i], at[i] = ev.PeerEval(p, i), moves+1
			}
			return evals[i]
		}
	} else {
		var err error
		if dy, err = core.NewDynEval(ev, p); err != nil {
			return Result{}, err
		}
		defer dy.Close()
		cache = dy.Cache()
		peerEval = dy.PeerEval
	}
	envOf := func(i int) uint64 {
		if cache != nil {
			return cache.PeerVersion(i)
		}
		return moves
	}
	// done fills what only a DynEval knows: the batch store's counters
	// and, when withCost, the final social cost read off its rows.
	done := func(withCost bool) (Result, error) {
		if dy != nil && withCost {
			res.FinalCost, res.FinalCostOK = dy.SocialCost(), true
		}
		if cache != nil {
			res.CacheStats = cache.Stats()
		}
		return res, nil
	}

	var ct *cycleTracker
	if cfg.DetectCycles {
		ct = newCycleTracker()
	}
	needSnap := cfg.DetectCycles || cfg.OnStep != nil
	var snap core.Profile // clone of p taken after the last applied move
	haveSnap := false

	// devEntry is peer i's persisted best response: res as returned by
	// the oracle, env the environment version it was computed under, and
	// step the step the oracle was last actually invoked on.
	type devEntry struct {
		res  bestresponse.Result
		ok   bool
		env  uint64
		step int
	}
	dev := make([]devEntry, n)
	curStep := 0
	var oracleErr error
	refresh := func(i int) *devEntry {
		e := &dev[i]
		r, err := cfg.Oracle.BestResponse(ev, p, i)
		if err != nil {
			oracleErr = err
			return e
		}
		*e = devEntry{res: r, ok: true, env: envOf(i), step: curStep}
		return e
	}
	gainOf := func(e *devEntry, i int) float64 {
		if e.res.Strategy.Equal(p.Strategy(i)) {
			// Staying put is not a deviation. Guards against phantom
			// gains when the oracle's scorer and the current eval
			// disagree by floating-point association and the caller's
			// Tol is below that noise.
			return 0
		}
		return peerEval(i).Gain(e.res.Eval)
	}
	gain := func(i int) float64 {
		if oracleErr != nil {
			return 0
		}
		e := &dev[i]
		if !e.ok || e.env != envOf(i) {
			e = refresh(i)
			if oracleErr != nil {
				return 0
			}
		}
		return gainOf(e, i)
	}

	for step := 0; step < cfg.MaxSteps; step++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		curStep = step
		if cfg.DetectCycles {
			cl := snap
			if !haveSnap {
				cl = p.Clone()
			}
			if first, hit := ct.observe(cl, cfg.Policy.StateKey(), step); hit {
				ct.report(&res, p, cfg.Policy.Deterministic(), first, step)
				return done(false)
			}
		}
		haveSnap = false

		mover := cfg.Policy.PickNext(n, gain, cfg.Tol, cfg.Rand)
		if oracleErr != nil {
			return Result{}, oracleErr
		}
		if mover == -1 {
			// Certify convergence with a full fresh sweep: re-ask the
			// oracle for every peer whose gain was served from a
			// persisted cache rather than computed this step.
			suspect := false
			for i := 0; i < n; i++ {
				if e := &dev[i]; e.ok && e.step == step {
					continue
				}
				e := refresh(i)
				if oracleErr != nil {
					return Result{}, oracleErr
				}
				if gainOf(e, i) > cfg.Tol {
					suspect = true
					break
				}
			}
			if suspect {
				// A persisted gain was stale. Conservative invalidation
				// makes this unreachable; if it ever fires, re-pick with
				// the refreshed caches instead of reporting a false
				// equilibrium.
				mover = cfg.Policy.PickNext(n, gain, cfg.Tol, cfg.Rand)
				if oracleErr != nil {
					return Result{}, oracleErr
				}
			}
			if mover == -1 {
				res.Final = p
				res.Converged = true
				res.Steps = step
				return done(true)
			}
		}
		e := &dev[mover]
		if !e.ok {
			return Result{}, ErrNoProgress
		}
		if e.step != step {
			// The pick rests on a persisted entry: re-validate with a
			// fresh oracle call before applying the move.
			e = refresh(mover)
			if oracleErr != nil {
				return Result{}, oracleErr
			}
		}
		old := peerEval(mover)
		if !e.res.Eval.Better(old, cfg.Tol) {
			return Result{}, ErrNoProgress
		}
		if err := p.SetStrategy(mover, e.res.Strategy); err != nil {
			return Result{}, err
		}
		if dy != nil {
			if _, err := dy.Apply(mover, e.res.Strategy); err != nil {
				return Result{}, err
			}
		}
		moves++
		// The mover's environment (the graph minus its own out-arcs) is
		// untouched by its own move, but its cached best response is
		// dropped anyway: an oracle's answer may depend on the peer's
		// current strategy (e.g. an iteration-capped hill climb resumes
		// from the incumbent), so only oracles whose answer is a fixed
		// point of itself could soundly keep it — a property the Oracle
		// interface does not promise.
		dev[mover].ok = false
		res.Steps = step + 1
		if needSnap {
			snap = p.Clone()
			haveSnap = true
		}
		if cfg.OnStep != nil {
			cfg.OnStep(StepEvent{
				Step:    step,
				Peer:    mover,
				Old:     old,
				New:     e.res.Eval,
				Profile: snap,
			})
		}
	}
	res.Final = p // neither converged nor (detected) cycling: budget ran out
	return done(true)
}

// mix is a 64-bit finalizer applied to scheduler state before XOR-ing it
// into the profile hash, so small pointer values do not collide with
// profile bits.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ConvergenceStats aggregates repeated runs from random starting
// profiles: how often dynamics converge and how many steps they take.
type ConvergenceStats struct {
	Runs          int
	Converged     int
	Cycled        int
	OutOfBudget   int
	MeanSteps     float64 // over converged runs
	MaxSteps      int     // over converged runs
	MeanCycleLen  float64 // over cycled runs
	TotalApplied  int
	DistinctFinal int // distinct final/equilibrium profiles seen
}

// RandomProfile draws a profile where each ordered pair is linked with
// probability q.
func RandomProfile(r *rng.RNG, n int, q float64) core.Profile {
	p := core.NewProfile(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && r.Bool(q) {
				_ = p.AddLink(i, j)
			}
		}
	}
	return p
}

// ReplicasContext executes `runs` independent dynamics runs from
// random starting profiles of density linkProb, fanning them across
// cfg.Parallelism workers with one evaluator clone per goroutine, and
// returns the per-replica results in replica order. Converge aggregates
// over it; the scenario engine consumes the raw slice to compute
// arbitrary measures, and WorstConverged picks the worst equilibrium
// from it.
//
// Determinism at every parallelism width comes from two invariants:
// each replica's RNG stream and start profile are drawn from r
// sequentially before any run begins (so the parent stream advances
// exactly as in a sequential loop), and results are collected into a
// slice indexed by replica so callers aggregate in replica order. The
// returned error is the lowest-index replica failure, matching what a
// sequential loop would have reported first.
//
// ctx is threaded into every replica's RunContext, so a deadline or
// disconnect interrupts the fan-out mid-step on whichever replicas are
// running. The results do not depend on ctx unless it fires.
func ReplicasContext(ctx context.Context, ev *core.Evaluator, cfg Config, runs int, linkProb float64, r *rng.RNG) ([]Result, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("dynamics: runs = %d, want > 0", runs)
	}
	if r == nil {
		return nil, errors.New("dynamics: replicas need an RNG")
	}
	n := ev.Instance().N()
	type replica struct {
		cfg   Config
		start core.Profile
	}
	reps := make([]replica, runs)
	for k := range reps {
		runCfg := cfg
		runCfg.Rand = r.Split()
		if runCfg.Policy != nil {
			// Stateful policies (e.g. RoundRobin's scan pointer) must
			// not be shared across concurrent replicas.
			runCfg.Policy = runCfg.Policy.Clone()
		}
		if runCfg.Oracle != nil {
			// Likewise for oracles: the exact oracle keeps evaluation
			// statistics, so a caller-supplied instance must not be
			// shared across concurrent replicas.
			runCfg.Oracle = runCfg.Oracle.Clone()
		}
		reps[k] = replica{cfg: runCfg, start: RandomProfile(r, n, linkProb)}
	}

	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > runs {
		workers = runs
	}
	if cfg.OnStep != nil {
		workers = 1 // callbacks must not fire concurrently
	}
	if workers > 1 {
		// Replica-level parallelism already saturates the cores; nested
		// per-run batch pools would only multiply goroutines. Results are
		// byte-identical at any batch width, so this is purely perf.
		for k := range reps {
			reps[k].cfg.BatchWorkers = 1
		}
	}

	results := make([]Result, runs)
	errs := make([]error, runs)
	if workers == 1 {
		// Sequential replicas share one batch pool instead of each Run
		// rebuilding it (and re-warming its clones' arenas) per replica.
		if bw := batchWorkerCount(cfg.BatchWorkers, n); bw > 1 && ev.Pool() == nil && ev.Instance().SupportsBatchEval() {
			ev.AttachPool(core.NewPool(ev.Instance(), bw))
			defer ev.AttachPool(nil)
		}
		for k := range reps {
			results[k], errs[k] = RunContext(ctx, ev, reps[k].start, reps[k].cfg)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wev := ev.Clone()
				for {
					k := int(next.Add(1)) - 1
					if k >= runs {
						return
					}
					results[k], errs[k] = RunContext(ctx, wev, reps[k].start, reps[k].cfg)
				}
			}()
		}
		wg.Wait()
	}
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dynamics: run %d: %w", k, err)
		}
	}
	return results, nil
}

// Converge runs dynamics from `runs` random starting profiles and
// aggregates the outcomes. Each run gets an independent RNG stream split
// from r. Replicas execute concurrently per cfg.Parallelism; the
// aggregate is bit-identical at any width.
func Converge(ev *core.Evaluator, cfg Config, runs int, linkProb float64, r *rng.RNG) (ConvergenceStats, error) {
	results, err := ReplicasContext(context.Background(), ev, cfg, runs, linkProb, r)
	if err != nil {
		return ConvergenceStats{}, err
	}
	stats := ConvergenceStats{Runs: runs}
	finals := make(map[uint64]bool)
	sumSteps, sumCycle := 0, 0
	for _, res := range results {
		stats.TotalApplied += res.Steps
		switch {
		case res.Converged:
			stats.Converged++
			sumSteps += res.Steps
			if res.Steps > stats.MaxSteps {
				stats.MaxSteps = res.Steps
			}
			finals[res.Final.Hash()] = true
		case res.CycleDetected:
			stats.Cycled++
			sumCycle += res.CycleLength
		default:
			stats.OutOfBudget++
		}
	}
	if stats.Converged > 0 {
		stats.MeanSteps = float64(sumSteps) / float64(stats.Converged)
	}
	if stats.Cycled > 0 {
		stats.MeanCycleLen = float64(sumCycle) / float64(stats.Cycled)
	}
	stats.DistinctFinal = len(finals)
	return stats, nil
}

// WorstConverged scans replica results in order and returns the
// converged final profile with the highest social cost (the earliest on
// ties — the Price-of-Anarchy selection convention of the scenario
// engine), its cost, and how many results converged. ok is false when
// none did.
func WorstConverged(ev *core.Evaluator, results []Result) (worst core.Profile, cost core.Cost, converged int, ok bool) {
	worstCost := math.Inf(-1)
	for _, res := range results {
		if !res.Converged {
			continue
		}
		converged++
		c := res.FinalCost
		if !res.FinalCostOK {
			c = ev.SocialCost(res.Final)
		}
		if c.Total() > worstCost {
			worstCost = c.Total()
			worst = res.Final
			cost = c
			ok = true
		}
	}
	return worst, cost, converged, ok
}
