package dynamics

import (
	"testing"

	"selfishnet/internal/core"
	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

func parallelTestEvaluator(t *testing.T, n int) *core.Evaluator {
	t.Helper()
	space, err := metric.UniformPoints(rng.New(29), n, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(space, 2)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewEvaluator(inst)
}

// TestConvergeParallelismInvariant asserts the replica engine's
// determinism contract: Converge must produce identical statistics at
// every parallelism width, because per-replica RNG streams and starting
// profiles are pre-drawn sequentially and outcomes are reduced in
// replica order.
func TestConvergeParallelismInvariant(t *testing.T) {
	ev := parallelTestEvaluator(t, 8)
	base := Config{Policy: &RoundRobin{}, MaxSteps: 3000, Parallelism: 1}
	want, err := Converge(ev, base, 10, 0.3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if want.Converged == 0 {
		t.Fatal("no replica converged; the invariant check would be vacuous")
	}
	for _, par := range []int{2, 4, 16} {
		cfg := base
		cfg.Parallelism = par
		got, err := Converge(ev.Clone(), cfg, 10, 0.3, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("parallelism %d: stats %+v, want %+v", par, got, want)
		}
	}
}

// TestConvergeParallelismInvariantRandomPolicy covers the randomized
// activation policy, whose per-replica RNG streams must also be
// independent of scheduling order.
func TestConvergeParallelismInvariantRandomPolicy(t *testing.T) {
	ev := parallelTestEvaluator(t, 7)
	base := Config{Policy: RandomImproving{}, MaxSteps: 3000, Parallelism: 1}
	want, err := Converge(ev, base, 8, 0.25, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Parallelism = 8
	got, err := Converge(ev.Clone(), cfg, 8, 0.25, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("parallel stats %+v, want %+v", got, want)
	}
}

// TestWorstEquilibriumParallelismInvariant asserts the worst equilibrium
// (profile and cost) is selected identically at any width.
func TestWorstEquilibriumParallelismInvariant(t *testing.T) {
	ev := parallelTestEvaluator(t, 8)
	base := Config{Policy: &RoundRobin{}, MaxSteps: 3000, Parallelism: 1}
	wantP, wantC, wantConv, wantOK, err := worstEquilibrium(ev, base, 8, 0.3, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if !wantOK {
		t.Fatal("no equilibrium found; the invariant check would be vacuous")
	}
	for _, par := range []int{3, 8} {
		cfg := base
		cfg.Parallelism = par
		gotP, gotC, gotConv, gotOK, err := worstEquilibrium(ev.Clone(), cfg, 8, 0.3, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		if gotOK != wantOK || gotConv != wantConv || gotC != wantC || !gotP.Equal(wantP) {
			t.Fatalf("parallelism %d: (%v, %+v, %d, %v) want (%v, %+v, %d, %v)",
				par, gotP, gotC, gotConv, gotOK, wantP, wantC, wantConv, wantOK)
		}
	}
}

// TestConvergeOnStepForcesSequential documents that step callbacks are
// never invoked concurrently: with OnStep set the engine runs replicas
// sequentially regardless of the configured parallelism.
func TestConvergeOnStepForcesSequential(t *testing.T) {
	ev := parallelTestEvaluator(t, 6)
	steps := 0
	cfg := Config{
		Policy:      &RoundRobin{},
		MaxSteps:    2000,
		Parallelism: 8,
		OnStep:      func(StepEvent) { steps++ }, // would race if concurrent
	}
	stats, err := Converge(ev, cfg, 6, 0.3, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if steps != stats.TotalApplied {
		t.Fatalf("OnStep saw %d steps, stats counted %d", steps, stats.TotalApplied)
	}
}
