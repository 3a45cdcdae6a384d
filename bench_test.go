// Benchmarks regenerating every table/figure of the paper (one
// Benchmark per experiment ID, in quick mode so the full suite stays
// fast) plus micro-benchmarks of the hot kernels: profile SSSP, exact
// and heuristic best responses, Nash verification, dynamics, the
// exhaustive no-Nash certificate and the overlay simulator.
//
//	go test -bench=. -benchmem
package selfishnet_test

import (
	"fmt"
	"testing"

	"selfishnet"
	"selfishnet/internal/bestresponse"
	"selfishnet/internal/construct"
	"selfishnet/internal/core"
	"selfishnet/internal/dynamics"
	_ "selfishnet/internal/experiments" // register the 13 paper runners
	"selfishnet/internal/metric"
	"selfishnet/internal/nash"
	"selfishnet/internal/opt"
	"selfishnet/internal/overlay"
	"selfishnet/internal/rng"
	"selfishnet/internal/scenario"
)

// benchExperiment runs one experiment table per iteration (quick mode).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tb, err := scenario.Run(id, scenario.Params{Quick: true, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// One benchmark per paper item (see EXPERIMENTS.md for the
// per-experiment index).

func BenchmarkE1UpperBound(b *testing.B)     { benchExperiment(b, "e1-upper") }
func BenchmarkE2Fig1Nash(b *testing.B)       { benchExperiment(b, "e2-fig1") }
func BenchmarkE3CostScaling(b *testing.B)    { benchExperiment(b, "e3-cost") }
func BenchmarkE4PriceOfAnarchy(b *testing.B) { benchExperiment(b, "e4-poa") }
func BenchmarkE5NoNash(b *testing.B)         { benchExperiment(b, "e5-nonash") }
func BenchmarkE6CandidateCycle(b *testing.B) { benchExperiment(b, "e6-cycle") }
func BenchmarkE7SqrtRegime(b *testing.B)     { benchExperiment(b, "e7-tulip") }
func BenchmarkE8Convergence(b *testing.B)    { benchExperiment(b, "e8-dyn") }
func BenchmarkE9Churn(b *testing.B)          { benchExperiment(b, "e9-churn") }
func BenchmarkE10Baselines(b *testing.B)     { benchExperiment(b, "e10-baseline") }
func BenchmarkE11Landscape(b *testing.B)     { benchExperiment(b, "e11-exact") }
func BenchmarkE12Oracles(b *testing.B)       { benchExperiment(b, "e12-oracle") }
func BenchmarkE13Congestion(b *testing.B)    { benchExperiment(b, "e13-congest") }

// --- kernel micro-benchmarks ---

func randomSetup(b *testing.B, n int, alpha float64) (*core.Evaluator, core.Profile) {
	b.Helper()
	r := rng.New(42)
	space, err := metric.UniformPoints(r, n, 2)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := core.NewInstance(space, alpha)
	if err != nil {
		b.Fatal(err)
	}
	return core.NewEvaluator(inst), dynamics.RandomProfile(r, n, 0.2)
}

func BenchmarkPeerCostSSSP64(b *testing.B) {
	ev, p := randomSetup(b, 64, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.PeerCost(p, i%64)
	}
}

func BenchmarkSocialCost64(b *testing.B) {
	ev, p := randomSetup(b, 64, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.SocialCost(p)
	}
}

// uniformSetup builds a uniform-metric (every pair at distance 1)
// instance, the metric class the word-parallel BFS kernel serves. The
// space is the implicit O(1) UnitSpace — no dense matrix — so these
// benchmarks scale past the n² memory wall; evaluations are
// bit-identical to the dense metric.Uniform path.
func uniformSetup(b *testing.B, n int, alpha float64) (*core.Evaluator, core.Profile) {
	b.Helper()
	space, err := metric.UniformImplicit(n)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := core.NewInstance(space, alpha)
	if err != nil {
		b.Fatal(err)
	}
	return core.NewEvaluator(inst), dynamics.RandomProfile(rng.New(42), n, 0.2)
}

// BenchmarkSocialCost64Uniform is the PR-4 acceptance benchmark: the
// same all-pairs social-cost workload as BenchmarkSocialCost64, on the
// uniform metric the bitset BFS kernel dispatches on. Compare against
// its heap ablation, BenchmarkSocialCost64UniformHeap in internal/core,
// and the BenchmarkSocialCost64 snapshots in BENCH_baseline.json.
func BenchmarkSocialCost64Uniform(b *testing.B) {
	ev, p := uniformSetup(b, 64, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.SocialCost(p)
	}
}

// BenchmarkSocialCost1024 exercises the large-n regime the kernel
// family exists for: a full n=1024 all-pairs evaluation (1024 BFS
// sweeps over 64-bit frontier words), allocation-free in steady state.
func BenchmarkSocialCost1024(b *testing.B) {
	ev, p := uniformSetup(b, 1024, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.SocialCost(p)
	}
}

// --- internet-scale benchmarks: banded store, certification, estimators ---
//
// These are the PR-10 scaling curve. After running them, append a
// snapshot object to the `history` array of BENCH_baseline.json (PR
// name, date, machine, per-benchmark ns/op and allocs) — never
// overwrite earlier entries; the scaling claim is the trajectory.

// starSetup builds the banded benchmarks' workload: the star profile on
// the implicit uniform metric at α = 2, plus its closed-form social cost
// that every fold is checked against.
func starSetup(b *testing.B, n int) (*core.Evaluator, core.Profile, core.Cost) {
	b.Helper()
	space, err := metric.UniformImplicit(n)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := core.NewInstance(space, 2)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.StarProfile(n)
	if err != nil {
		b.Fatal(err)
	}
	return core.NewEvaluator(inst), p, core.StarSocialCost(n, 2)
}

// BenchmarkSocialCostBanded evaluates the exact all-pairs social cost
// through the banded multi-source BFS (64 sources' hop levels resident
// per worker, bit-identical to the slab fold) across the n-scaling
// curve. The n=65536
// point is the certify acceptance workload: 2³² pair terms, no dense
// matrix. BenchmarkSocialCostSlabStar1024 folds the n=1024 instance
// through the slab path, for a like-for-like comparison at a
// slab-feasible size.
func BenchmarkSocialCostBanded(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			ev, p, want := starSetup(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := ev.SocialCostBanded(p, 64)
				if err != nil {
					b.Fatal(err)
				}
				if got != want {
					b.Fatalf("banded %+v != closed form %+v", got, want)
				}
			}
		})
	}
}

// BenchmarkSocialCostBandedChain is BenchmarkSocialCostBanded on the
// chain, certify's other closed form: a chunk's BFS runs about n waves
// of at most 128 vertices each, where the star's runs two waves of
// about n vertices.
func BenchmarkSocialCostBandedChain(b *testing.B) {
	for _, n := range []int{1024, 8192} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			ev, _, _ := starSetup(b, n)
			p, err := core.ChainProfile(n)
			if err != nil {
				b.Fatal(err)
			}
			want := core.ChainSocialCost(n, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := ev.SocialCostBanded(p, 64)
				if err != nil {
					b.Fatal(err)
				}
				if got != want {
					b.Fatalf("banded %+v != closed form %+v", got, want)
				}
			}
		})
	}
}

// BenchmarkSocialCostSlabStar1024 is the slab-path twin of
// BenchmarkSocialCostBanded/n1024: the same star, metric and α, folded
// by SocialCost, so the pair differs only in the path.
func BenchmarkSocialCostSlabStar1024(b *testing.B) {
	ev, p, want := starSetup(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ev.SocialCost(p); got != want {
			b.Fatalf("slab %+v != closed form %+v", got, want)
		}
	}
}

// BenchmarkCertifyStar65536 is the closed-form certification alone:
// the O(n) complete deviation-space analysis that decides Nash
// stability at n=65536 without touching a kernel.
func BenchmarkCertifyStar65536(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cert, err := core.CertifyStar(65536, 2, bestresponse.Tolerance)
		if err != nil {
			b.Fatal(err)
		}
		if !cert.Stable {
			b.Fatal("star at α=2 must certify stable")
		}
	}
}

// BenchmarkEstimateSocialCost is the sampled estimator on a 16384-peer
// star: 64 seeded sources through the multi-source kernel, the
// general-metric large-n fallback's cost shape.
func BenchmarkEstimateSocialCost(b *testing.B) {
	const n = 16384
	space, err := metric.UniformImplicit(n)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := core.NewInstance(space, 2)
	if err != nil {
		b.Fatal(err)
	}
	ev := core.NewEvaluator(inst)
	p, err := core.StarProfile(n)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EstimateSocialCost(p, 64, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviationBatch1024Parallel measures intra-step parallel
// deviation-batch construction: the n−1 rest SSSPs of one oracle-call
// batch, sequential vs fanned across a pool (byte-identical rows).
func BenchmarkDeviationBatch1024Parallel(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "seq"
		if workers == 0 {
			name = "pool"
		}
		b.Run(name, func(b *testing.B) {
			ev, p := uniformSetup(b, 1024, 4)
			if workers == 0 {
				ev.AttachPool(core.NewPool(ev.Instance(), 0))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if batch := ev.NewDeviationBatch(p, i%1024); batch == nil {
					b.Fatal("batch unsupported")
				}
			}
		})
	}
}

func BenchmarkSocialCostPool64(b *testing.B) {
	ev, p := randomSetup(b, 64, 4)
	pool := core.NewPool(ev.Instance(), 0) // all cores
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pool.SocialCost(p)
	}
}

func BenchmarkDeviationBatch64(b *testing.B) {
	// One batch construction plus a sweep of single-link candidates:
	// the shape of work inside every best-response oracle call.
	ev, p := randomSetup(b, 64, 4)
	var s core.Strategy
	s.Add(0) // pre-grow the candidate set so the loop measures the kernel
	s.Remove(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := ev.NewDeviationBatch(p, i%64)
		if batch == nil {
			b.Fatal("batch unsupported")
		}
		for j := 0; j < 64; j++ {
			if j == i%64 {
				continue
			}
			s.Add(j)
			_ = batch.Eval(s)
			s.Remove(j)
		}
	}
}

func BenchmarkExactBestResponse14(b *testing.B) {
	ev, p := randomSetup(b, 14, 4)
	oracle := &bestresponse.Exact{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.BestResponse(ev, p, i%14); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalSearchBestResponse32(b *testing.B) {
	ev, p := randomSetup(b, 32, 4)
	oracle := &bestresponse.LocalSearch{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.BestResponse(ev, p, i%32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyBestResponse96(b *testing.B) {
	// The greedy oracle on the 96-peer unit metric, the shape of
	// sweep-dyn's greedy-unit grid: a tie-heavy bfs-kernel instance
	// where every add and drop is scored on the deviation batch.
	space, err := metric.UniformImplicit(96)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := core.NewInstance(space, 1.5)
	if err != nil {
		b.Fatal(err)
	}
	ev, p := core.NewEvaluator(inst), dynamics.RandomProfile(rng.New(42), 96, 0.2)
	oracle := &bestresponse.Greedy{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.BestResponse(ev, p, i%96); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUndirectedOracles(b *testing.B) {
	// Greedy and local search in the undirected game on uniform points
	// (sweep-dyn's undirected grid is greedy at n=24): each best
	// response builds a seeded deviation batch and scores every move on
	// its move base.
	for _, n := range []int{24, 96} {
		for _, oracle := range []bestresponse.Oracle{&bestresponse.Greedy{}, &bestresponse.LocalSearch{}} {
			b.Run(fmt.Sprintf("%s/n=%d", oracle.Name(), n), func(b *testing.B) {
				r := rng.New(42)
				space, err := metric.UniformPoints(r, n, 2)
				if err != nil {
					b.Fatal(err)
				}
				inst, err := core.NewInstance(space, 2, core.WithUndirected())
				if err != nil {
					b.Fatal(err)
				}
				ev, p := core.NewEvaluator(inst), dynamics.RandomProfile(r, n, 0.1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := oracle.BestResponse(ev, p, i%n); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkNashCheckFigure1(b *testing.B) {
	f, err := construct.NewFigure1(11, 4)
	if err != nil {
		b.Fatal(err)
	}
	ev := core.NewEvaluator(f.Instance)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := nash.IsNash(ev, f.Profile)
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatal("not Nash")
		}
	}
}

func BenchmarkDynamicsToConvergence(b *testing.B) {
	ev, _ := randomSetup(b, 10, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dynamics.Run(ev, core.NewProfile(10), dynamics.Config{
			Policy: &dynamics.RoundRobin{}, MaxSteps: 5000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("did not converge")
		}
	}
}

func BenchmarkDynamicsToConvergenceIncremental(b *testing.B) {
	// Ablation: the same workload with the incremental engine pinned on
	// (the default engages it only at n ≥ dynamics.IncrementalMinPeers).
	ev, _ := randomSetup(b, 10, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dynamics.Run(ev, core.NewProfile(10), dynamics.Config{
			Policy: &dynamics.RoundRobin{}, MaxSteps: 5000, ForceIncremental: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("did not converge")
		}
	}
}

func BenchmarkDynamicsLarge(b *testing.B) {
	// A 128-peer best-response run (12 applied moves, local-search
	// oracle) — infeasible with the seed's dense SSSPs and unbounded
	// scoring, routine with the incremental engine (n ≥ 64 selects it),
	// the batched deviation evaluator and bounded candidate evaluation.
	ev, _ := randomSetup(b, 128, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dynamics.Run(ev, core.NewProfile(128), dynamics.Config{
			Policy:   &dynamics.RoundRobin{},
			Oracle:   &bestresponse.LocalSearch{},
			MaxSteps: 12,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Steps != 12 {
			b.Fatalf("applied %d steps, want 12", res.Steps)
		}
	}
}

func BenchmarkDynamicsScaling(b *testing.B) {
	// BenchmarkDynamicsLarge's 12 local-search moves from the empty
	// profile at growing n: the steps/s-vs-n curve of best-response
	// dynamics (12 steps per op).
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ev, _ := randomSetup(b, n, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := dynamics.Run(ev, core.NewProfile(n), dynamics.Config{
					Policy:   &dynamics.RoundRobin{},
					Oracle:   &bestresponse.LocalSearch{},
					MaxSteps: 12,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Steps != 12 {
					b.Fatalf("applied %d steps, want 12", res.Steps)
				}
			}
		})
	}
}

func BenchmarkConvergeReplicas(b *testing.B) {
	// 8 independent replica runs fanned across the dynamics worker pool
	// (bit-identical to sequential; wall-clock scales with cores).
	ev, _ := randomSetup(b, 10, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := dynamics.Converge(ev, dynamics.Config{
			Policy: &dynamics.RoundRobin{}, MaxSteps: 5000,
		}, 8, 0.2, rng.New(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		if stats.Runs != 8 {
			b.Fatal("missing replicas")
		}
	}
}

func BenchmarkRunAllQuick(b *testing.B) {
	// The whole reproduction harness, all 13 experiments, quick mode,
	// default parallelism.
	for i := 0; i < b.N; i++ {
		tables, err := scenario.RunAll(nil, scenario.Params{Quick: true, Seed: 1}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) != 13 {
			b.Fatalf("got %d tables", len(tables))
		}
	}
}

func BenchmarkOscillationCycleDetection(b *testing.B) {
	ik, err := construct.NewIk(1, construct.DefaultIkParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ik.Oscillate(construct.Candidates()[0], 400)
		if err != nil {
			b.Fatal(err)
		}
		if !res.CycleDetected {
			b.Fatal("no cycle")
		}
	}
}

func BenchmarkCertifyNoNashExhaustive(b *testing.B) {
	// The full 2^20-profile certificate (~3 s/op): the machine-checked
	// heart of Theorem 5.1.
	ik, err := construct.NewIk(1, construct.DefaultIkParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ik.CertifyNoNash(1 << 21); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTulipConstruction100(b *testing.B) {
	r := rng.New(3)
	space, err := metric.UniformPoints(r, 100, 2)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := core.NewInstance(space, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Tulip(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverlaySimulation(b *testing.B) {
	r := rng.New(5)
	space, err := metric.UniformPoints(r, 16, 2)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := core.NewInstance(space, 1)
	if err != nil {
		b.Fatal(err)
	}
	tulip, err := opt.Tulip(inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := overlay.New(overlay.Config{
			Instance: inst, Topology: tulip, Duration: 50,
			LookupRate: 1, ChurnRate: 0.02, PingInterval: 5,
			Repair: overlay.RepairNearest, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionReuse(b *testing.B) {
	// The Session redesign's payoff: a stream of per-peer cost queries
	// against one game, either through a reused Session (cached
	// evaluator buffers, zero allocations per query) or through the
	// one-shot facade function (a fresh evaluator per call, the
	// pre-redesign shape).
	r := selfishnet.NewRNG(42)
	space, err := selfishnet.UniformPeers(r, 64, 2)
	if err != nil {
		b.Fatal(err)
	}
	game, err := selfishnet.NewGame(space, 4)
	if err != nil {
		b.Fatal(err)
	}
	p := selfishnet.RandomProfile(r, 64, 0.2)

	b.Run("session", func(b *testing.B) {
		s := selfishnet.NewSession(game)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = s.PeerCost(p, i%64)
		}
	})
	b.Run("per-call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = selfishnet.PeerCost(game, p, i%64)
		}
	})
}

func BenchmarkFacadeQuickstart(b *testing.B) {
	r := selfishnet.NewRNG(2024)
	space, err := selfishnet.UniformPeers(r, 8, 2)
	if err != nil {
		b.Fatal(err)
	}
	game, err := selfishnet.NewGame(space, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := selfishnet.RunDynamics(game, selfishnet.EmptyProfile(8), selfishnet.DynamicsConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("did not converge")
		}
	}
}
