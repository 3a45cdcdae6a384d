package dynamics

// Differential test for intra-step parallel deviation-batch
// construction (Config.BatchWorkers): fanning the rest-SSSP rows of
// every oracle call across a core.Pool must leave trajectories
// byte-identical — rows land in slots indexed by source, so the oracle
// sees the same floats at any width.

import (
	"testing"

	"selfishnet/internal/bestresponse"
	"selfishnet/internal/core"
	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

func TestBatchWorkersTrajectoriesByteIdentical(t *testing.T) {
	points := func(r *rng.RNG, n int) (metric.Space, error) { return metric.UniformPoints(r, n, 2) }
	for _, tc := range []struct {
		name  string
		space func(r *rng.RNG, n int) (metric.Space, error)
		opts  []core.Option
	}{
		{name: "points", space: points},
		{name: "unit", space: func(_ *rng.RNG, n int) (metric.Space, error) { return metric.Uniform(n) }},
		// Undirected batches settle seeded rows, on the same pool.
		{name: "points-undirected", space: points, opts: []core.Option{core.WithUndirected()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 72
			run := func(workers int) ([]int, []core.Strategy, Result) {
				space, err := tc.space(rng.New(7), n)
				if err != nil {
					t.Fatal(err)
				}
				inst, err := core.NewInstance(space, 2, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				var movers []int
				var strategies []core.Strategy
				res, err := Run(core.NewEvaluator(inst), RandomProfile(rng.New(8), n, 0.1), Config{
					Oracle:       &bestresponse.LocalSearch{},
					Policy:       &RoundRobin{},
					MaxSteps:     8,
					BatchWorkers: workers,
					OnStep: func(e StepEvent) {
						movers = append(movers, e.Peer)
						strategies = append(strategies, e.Profile.Strategy(e.Peer).Clone())
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				return movers, strategies, res
			}
			seqMovers, seqStrats, seqRes := run(1)
			parMovers, parStrats, parRes := run(3)
			if len(seqMovers) == 0 {
				t.Fatal("no moves applied; the case exercises nothing")
			}
			if len(seqMovers) != len(parMovers) {
				t.Fatalf("step counts differ: seq %d, par %d", len(seqMovers), len(parMovers))
			}
			for k := range seqMovers {
				if seqMovers[k] != parMovers[k] {
					t.Fatalf("step %d: mover %d vs %d", k, seqMovers[k], parMovers[k])
				}
				if !seqStrats[k].Equal(parStrats[k]) {
					t.Fatalf("step %d: adopted strategies differ", k)
				}
			}
			if seqRes.Converged != parRes.Converged || seqRes.Steps != parRes.Steps ||
				!seqRes.Final.Equal(parRes.Final) {
				t.Fatalf("results differ: seq %+v, par %+v", seqRes, parRes)
			}
		})
	}
}
