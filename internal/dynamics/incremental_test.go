package dynamics

// Differential tests for the incremental engine: on a DynEval's rows
// (ForceIncremental) and with forced fresh recomputation (ForceFresh),
// dynamics must produce byte-identical trajectories — the same movers
// in the same order adopting the same strategies, the same step counts,
// the same final profiles and convergence flags — across policies,
// oracles and game regimes. This is the soundness gate for the engine's
// rows: exact current evals and deviation batches whose rest rows the
// engine lends must make the engines indistinguishable.

import (
	"math"
	"testing"

	"selfishnet/internal/bestresponse"
	"selfishnet/internal/core"
	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

type trajCase struct {
	name       string
	n          int
	alpha      float64
	undirected bool
	gamma      float64
	oracle     func() bestresponse.Oracle
	policy     func() Policy
	start      float64 // link probability of the random start (0 = empty)
}

func trajCases() []trajCase {
	return []trajCase{
		{name: "roundrobin-exact", n: 9, alpha: 2, oracle: func() bestresponse.Oracle { return &bestresponse.Exact{} }, policy: func() Policy { return &RoundRobin{} }},
		{name: "firstimproving-exact", n: 8, alpha: 1.2, oracle: func() bestresponse.Oracle { return &bestresponse.Exact{} }, policy: func() Policy { return FirstImproving{} }, start: 0.3},
		{name: "maxgain-exact", n: 8, alpha: 3, oracle: func() bestresponse.Oracle { return &bestresponse.Exact{} }, policy: func() Policy { return MaxGain{} }, start: 0.2},
		{name: "random-exact", n: 8, alpha: 2, oracle: func() bestresponse.Oracle { return &bestresponse.Exact{} }, policy: func() Policy { return RandomImproving{} }, start: 0.25},
		{name: "roundrobin-localsearch", n: 14, alpha: 2, oracle: func() bestresponse.Oracle { return &bestresponse.LocalSearch{} }, policy: func() Policy { return &RoundRobin{} }, start: 0.15},
		{name: "maxgain-greedy", n: 12, alpha: 1.5, oracle: func() bestresponse.Oracle { return &bestresponse.Greedy{} }, policy: func() Policy { return MaxGain{} }, start: 0.2},
		{name: "undirected-localsearch", n: 10, alpha: 2, undirected: true, oracle: func() bestresponse.Oracle { return &bestresponse.LocalSearch{} }, policy: func() Policy { return &RoundRobin{} }, start: 0.2},
		{name: "congested-localsearch", n: 10, alpha: 1.5, gamma: 0.6, oracle: func() bestresponse.Oracle { return &bestresponse.LocalSearch{} }, policy: func() Policy { return &RoundRobin{} }, start: 0.2},
		// One-iteration local search is NOT a fixed point of its own
		// answer (a fresh call from the adopted strategy climbs further),
		// so it exercises the rule that the mover's cached best response
		// is dropped after its own move.
		{name: "maxgain-capped-localsearch", n: 14, alpha: 2, oracle: func() bestresponse.Oracle { return &bestresponse.LocalSearch{MaxIterations: 1} }, policy: func() Policy { return MaxGain{} }, start: 0.2},
		{name: "roundrobin-capped-localsearch", n: 12, alpha: 1.5, oracle: func() bestresponse.Oracle { return &bestresponse.LocalSearch{MaxIterations: 1} }, policy: func() Policy { return &RoundRobin{} }, start: 0.25},
	}
}

type trajectory struct {
	movers     []int
	strategies []core.Strategy
	res        Result
}

// trajEvaluator builds the case's game on seeded uniform points.
func trajEvaluator(t *testing.T, c trajCase, seed uint64) *core.Evaluator {
	t.Helper()
	space, err := metric.UniformPoints(rng.New(seed), c.n, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := []core.Option{}
	if c.undirected {
		opts = append(opts, core.WithUndirected())
	}
	if c.gamma > 0 {
		opts = append(opts, core.WithCongestion(c.gamma))
	}
	inst, err := core.NewInstance(space, c.alpha, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewEvaluator(inst)
}

func runTrajectory(t *testing.T, c trajCase, seed uint64, forceFresh bool) trajectory {
	t.Helper()
	ev := trajEvaluator(t, c, seed)
	start := core.NewProfile(c.n)
	if c.start > 0 {
		start = RandomProfile(rng.New(seed+1), c.n, c.start)
	}
	var traj trajectory
	res, err := Run(ev, start, Config{
		Oracle:           c.oracle(),
		Policy:           c.policy(),
		MaxSteps:         3000,
		Rand:             rng.New(seed + 2),
		ForceFresh:       forceFresh,
		ForceIncremental: !forceFresh,
		OnStep: func(e StepEvent) {
			traj.movers = append(traj.movers, e.Peer)
			traj.strategies = append(traj.strategies, e.Profile.Strategy(e.Peer).Clone())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	traj.res = res
	return traj
}

// TestIncrementalTrajectoriesMatchFresh is the randomized property test:
// across policies (round-robin, first-improving, max-gain, seeded
// random), oracles and regimes, the incremental engine and the fresh
// engine must produce identical step sequences, step counts,
// convergence flags and final profiles.
func TestIncrementalTrajectoriesMatchFresh(t *testing.T) {
	for _, c := range trajCases() {
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				inc := runTrajectory(t, c, seed, false)
				fresh := runTrajectory(t, c, seed, true)
				if inc.res.Steps != fresh.res.Steps {
					t.Fatalf("seed %d: steps %d (incremental) vs %d (fresh)", seed, inc.res.Steps, fresh.res.Steps)
				}
				if inc.res.Converged != fresh.res.Converged {
					t.Fatalf("seed %d: converged %v vs %v", seed, inc.res.Converged, fresh.res.Converged)
				}
				if !inc.res.Final.Equal(fresh.res.Final) {
					t.Fatalf("seed %d: final profiles differ:\n  incremental %v\n  fresh %v", seed, inc.res.Final, fresh.res.Final)
				}
				if len(inc.movers) != len(fresh.movers) {
					t.Fatalf("seed %d: %d moves vs %d", seed, len(inc.movers), len(fresh.movers))
				}
				for s := range inc.movers {
					if inc.movers[s] != fresh.movers[s] {
						t.Fatalf("seed %d step %d: mover %d vs %d", seed, s, inc.movers[s], fresh.movers[s])
					}
					if !inc.strategies[s].Equal(fresh.strategies[s]) {
						t.Fatalf("seed %d step %d: adopted strategies differ: %v vs %v",
							seed, s, inc.strategies[s], fresh.strategies[s])
					}
				}
				if inc.res.FinalCostOK {
					// The engine's free social cost must be bit-identical
					// to a fresh evaluation of the same profile.
					r := rng.New(seed)
					space, _ := metric.UniformPoints(r, c.n, 2)
					opts := []core.Option{}
					if c.undirected {
						opts = append(opts, core.WithUndirected())
					}
					if c.gamma > 0 {
						opts = append(opts, core.WithCongestion(c.gamma))
					}
					inst, _ := core.NewInstance(space, c.alpha, opts...)
					want := core.NewEvaluator(inst).SocialCost(inc.res.Final)
					if inc.res.FinalCost != want {
						t.Fatalf("seed %d: FinalCost %+v, fresh SocialCost %+v", seed, inc.res.FinalCost, want)
					}
				}
			}
		})
	}
}

// TestIncrementalCycleDetectionMatchesFresh pins the cycle path: both
// engines must detect the same cycles with the same lengths.
func TestIncrementalCycleDetectionMatchesFresh(t *testing.T) {
	c := trajCase{
		n: 8, alpha: 2,
		oracle: func() bestresponse.Oracle { return &bestresponse.LocalSearch{} },
		policy: func() Policy { return &RoundRobin{} },
		start:  0.3,
	}
	for seed := uint64(20); seed < 30; seed++ {
		run := func(fresh bool) Result {
			r := rng.New(seed)
			space, err := metric.UniformPoints(r, c.n, 2)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := core.NewInstance(space, c.alpha)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(core.NewEvaluator(inst), RandomProfile(rng.New(seed+1), c.n, c.start), Config{
				Oracle:           c.oracle(),
				Policy:           c.policy(),
				MaxSteps:         2000,
				DetectCycles:     true,
				ForceFresh:       fresh,
				ForceIncremental: !fresh,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		inc, fresh := run(false), run(true)
		if inc.CycleDetected != fresh.CycleDetected || inc.CycleLength != fresh.CycleLength ||
			inc.Steps != fresh.Steps || !inc.Final.Equal(fresh.Final) {
			t.Fatalf("seed %d: cycle results diverge: incremental %+v vs fresh %+v", seed, inc, fresh)
		}
	}
}

// TestIncrementalConvergeAggregates runs the replica driver through
// both engines and compares the aggregate statistics, covering the
// WorstConverged FinalCost fast path.
func TestIncrementalConvergeAggregates(t *testing.T) {
	r := rng.New(99)
	space, err := metric.UniformPoints(r, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(space, 2)
	if err != nil {
		t.Fatal(err)
	}
	ev := core.NewEvaluator(inst)
	run := func(fresh bool) (ConvergenceStats, core.Profile, core.Cost, bool) {
		cfg := Config{Policy: &RoundRobin{}, MaxSteps: 3000, ForceFresh: fresh, ForceIncremental: !fresh}
		stats, err := Converge(ev, cfg, 6, 0.25, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		worst, cost, _, ok, err := worstEquilibrium(ev, cfg, 6, 0.25, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		return stats, worst, cost, ok
	}
	incStats, incWorst, incCost, incOK := run(false)
	freshStats, freshWorst, freshCost, freshOK := run(true)
	if incStats != freshStats {
		t.Fatalf("Converge stats diverge: %+v vs %+v", incStats, freshStats)
	}
	if incOK != freshOK || !incWorst.Equal(freshWorst) {
		t.Fatalf("worst equilibria diverge")
	}
	if math.Abs(incCost.Total()-freshCost.Total()) != 0 {
		t.Fatalf("worst costs diverge: %v vs %v", incCost, freshCost)
	}
}
