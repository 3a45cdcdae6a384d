package dynamics

import (
	"context"
	"errors"
	"testing"

	"selfishnet/internal/bestresponse"
	"selfishnet/internal/core"
	"selfishnet/internal/metric"
	"selfishnet/internal/nash"
	"selfishnet/internal/rng"
)

func lineEvaluator(t *testing.T, positions []float64, alpha float64) *core.Evaluator {
	t.Helper()
	s, err := metric.Line(positions)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(s, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewEvaluator(inst)
}

func policies() []Policy {
	return []Policy{&RoundRobin{}, FirstImproving{}, MaxGain{}, RandomImproving{}}
}

func TestRunConvergesToNash(t *testing.T) {
	for _, pol := range policies() {
		t.Run(pol.Name(), func(t *testing.T) {
			ev := lineEvaluator(t, []float64{0, 1, 2, 3, 4}, 2)
			res, err := Run(ev, core.NewProfile(5), Config{
				Policy: pol,
				Rand:   rng.New(1),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("did not converge: %+v", res)
			}
			ok, err := nash.IsNash(ev, res.Final)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("final profile is not Nash: %v", res.Final)
			}
			if res.Steps == 0 {
				t.Error("expected at least one applied move from the empty profile")
			}
		})
	}
}

func TestRunOnEquilibriumIsZeroSteps(t *testing.T) {
	ev := lineEvaluator(t, []float64{0, 1}, 2)
	p := core.NewProfile(2)
	_ = p.AddLink(0, 1)
	_ = p.AddLink(1, 0)
	res, err := Run(ev, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Steps != 0 {
		t.Fatalf("result = %+v, want immediate convergence", res)
	}
}

func TestRunDoesNotMutateStart(t *testing.T) {
	ev := lineEvaluator(t, []float64{0, 1, 2}, 1)
	start := core.NewProfile(3)
	_, err := Run(ev, start, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if start.LinkCount() != 0 {
		t.Fatal("Run mutated the start profile")
	}
}

func TestRunSizeMismatch(t *testing.T) {
	ev := lineEvaluator(t, []float64{0, 1}, 1)
	if _, err := Run(ev, core.NewProfile(3), Config{}); err == nil {
		t.Fatal("size mismatch should error")
	}
}

func TestRunNoCycleOnConvergentInstance(t *testing.T) {
	ev := lineEvaluator(t, []float64{0, 1, 2, 3}, 2)
	res, err := Run(ev, core.NewProfile(4), Config{DetectCycles: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.CycleDetected {
		t.Fatal("false-positive cycle on a convergent instance")
	}
	if !res.Converged {
		t.Fatal("expected convergence")
	}
}

func TestOnStepEvents(t *testing.T) {
	ev := lineEvaluator(t, []float64{0, 1, 2}, 1)
	var events []StepEvent
	res, err := Run(ev, core.NewProfile(3), Config{
		OnStep: func(e StepEvent) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != res.Steps {
		t.Fatalf("got %d events for %d steps", len(events), res.Steps)
	}
	for k, e := range events {
		if e.Step != k {
			t.Errorf("event %d has Step %d", k, e.Step)
		}
		if !e.New.Better(e.Old, 0) {
			t.Errorf("event %d is not an improvement", k)
		}
	}
	// Final event's profile must equal the final profile.
	if len(events) > 0 && !events[len(events)-1].Profile.Equal(res.Final) {
		t.Error("last event snapshot differs from final profile")
	}
}

// stuckPolicy always picks peer 0 without consulting gains: exercises
// the engine's ErrNoProgress guard.
type stuckPolicy struct{}

func (stuckPolicy) PickNext(int, func(int) float64, float64, *rng.RNG) int { return 0 }
func (stuckPolicy) StateKey() uint64                                       { return 0 }
func (stuckPolicy) Deterministic() bool                                    { return true }
func (stuckPolicy) Reset()                                                 {}
func (stuckPolicy) Clone() Policy                                          { return stuckPolicy{} }
func (stuckPolicy) Name() string                                           { return "stuck" }

func TestRunRejectsNonImprovingPolicy(t *testing.T) {
	ev := lineEvaluator(t, []float64{0, 1}, 2)
	p := core.NewProfile(2)
	_ = p.AddLink(0, 1)
	_ = p.AddLink(1, 0)
	_, err := Run(ev, p, Config{Policy: stuckPolicy{}})
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
}

func TestMaxGainPicksArgmax(t *testing.T) {
	gains := []float64{0, 3, 7, 7, 2}
	got := MaxGain{}.PickNext(5, func(i int) float64 { return gains[i] }, 1e-9, nil)
	if got != 2 {
		t.Fatalf("PickNext = %d, want 2 (first argmax)", got)
	}
	none := MaxGain{}.PickNext(3, func(int) float64 { return 0 }, 1e-9, nil)
	if none != -1 {
		t.Fatalf("PickNext = %d, want -1", none)
	}
}

func TestRoundRobinResumesAfterMover(t *testing.T) {
	p := &RoundRobin{}
	p.Reset()
	gains := []float64{1, 1, 1}
	g := func(i int) float64 { return gains[i] }
	if got := p.PickNext(3, g, 1e-9, nil); got != 0 {
		t.Fatalf("first pick = %d, want 0", got)
	}
	if got := p.PickNext(3, g, 1e-9, nil); got != 1 {
		t.Fatalf("second pick = %d, want 1", got)
	}
	gains[2] = 0
	if got := p.PickNext(3, g, 1e-9, nil); got != 0 {
		t.Fatalf("third pick = %d, want 0 (wraps past non-improving 2)", got)
	}
	if p.StateKey() != 1 {
		t.Fatalf("StateKey = %d, want 1", p.StateKey())
	}
}

func TestFirstImprovingScansFromZero(t *testing.T) {
	gains := []float64{0, 0, 5}
	got := FirstImproving{}.PickNext(3, func(i int) float64 { return gains[i] }, 1e-9, nil)
	if got != 2 {
		t.Fatalf("PickNext = %d, want 2", got)
	}
}

func TestRandomImprovingFallsBackWithoutRNG(t *testing.T) {
	gains := []float64{0, 4}
	got := RandomImproving{}.PickNext(2, func(i int) float64 { return gains[i] }, 1e-9, nil)
	if got != 1 {
		t.Fatalf("PickNext = %d, want 1", got)
	}
}

func TestRandomProfileExtremes(t *testing.T) {
	r := rng.New(3)
	if p := RandomProfile(r, 5, 0); p.LinkCount() != 0 {
		t.Error("q=0 should give empty profile")
	}
	if p := RandomProfile(r, 5, 1); p.LinkCount() != 20 {
		t.Errorf("q=1 should give complete profile, got %d links", p.LinkCount())
	}
}

func TestConvergeStats(t *testing.T) {
	ev := lineEvaluator(t, []float64{0, 1, 2, 3}, 2)
	stats, err := Converge(ev, Config{}, 10, 0.3, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 10 {
		t.Fatalf("Runs = %d", stats.Runs)
	}
	if stats.Converged != 10 {
		t.Fatalf("Converged = %d, want 10 (this instance is convergent)", stats.Converged)
	}
	if stats.DistinctFinal < 1 {
		t.Fatal("expected at least one distinct equilibrium")
	}
	if stats.MeanSteps < 0 {
		t.Fatal("MeanSteps negative")
	}
	if _, err := Converge(ev, Config{}, 0, 0.3, rng.New(1)); err == nil {
		t.Error("runs=0 should error")
	}
	if _, err := Converge(ev, Config{}, 1, 0.3, nil); err == nil {
		t.Error("nil rng should error")
	}
}

// worstEquilibrium picks the worst converged replica the way the
// scenario engine does: ReplicasContext, then WorstConverged.
func worstEquilibrium(ev *core.Evaluator, cfg Config, runs int, linkProb float64, r *rng.RNG) (core.Profile, core.Cost, int, bool, error) {
	results, err := ReplicasContext(context.Background(), ev, cfg, runs, linkProb, r)
	if err != nil {
		return core.Profile{}, core.Cost{}, 0, false, err
	}
	worst, cost, converged, ok := WorstConverged(ev, results)
	return worst, cost, converged, ok, nil
}

func TestWorstEquilibrium(t *testing.T) {
	ev := lineEvaluator(t, []float64{0, 1, 2, 3}, 2)
	worst, cost, converged, ok, err := worstEquilibrium(ev, Config{}, 8, 0.3, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if !ok || converged == 0 {
		t.Fatalf("ok=%v converged=%d", ok, converged)
	}
	isNash, err := nash.IsNash(ev, worst)
	if err != nil {
		t.Fatal(err)
	}
	if !isNash {
		t.Fatal("worst equilibrium is not Nash")
	}
	if cost.Total() <= 0 {
		t.Fatalf("cost = %+v", cost)
	}
	if _, _, _, _, err := worstEquilibrium(ev, Config{}, 1, 0.3, nil); err == nil {
		t.Error("nil rng should error")
	}
}

func TestConvergeCountsCycles(t *testing.T) {
	// On a no-Nash instance, Converge with cycle detection must report
	// cycled runs rather than convergence. Uses a 2-D five-point layout
	// equivalent to the construct package's certified I_1 (kept local to
	// avoid an import cycle between dynamics and construct).
	pts := [][]float64{
		{0, 0},
		{1.0897380701283743, -0.29877411771567863},
		{-0.6054405543330078, 1.0155530976122948},
		{0.8056117976478322, 1.2838994535956236},
		{2.1984022184350342, 1.0261561793611764},
	}
	space, err := metric.NewPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(space, 0.946911)
	if err != nil {
		t.Fatal(err)
	}
	ev := core.NewEvaluator(inst)
	stats, err := Converge(ev, Config{
		Policy:       MaxGain{},
		MaxSteps:     500,
		DetectCycles: true,
	}, 5, 0.3, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Converged != 0 {
		t.Fatalf("converged %d times on a no-Nash instance", stats.Converged)
	}
	if stats.Cycled != 5 {
		t.Fatalf("Cycled = %d, want 5", stats.Cycled)
	}
	if stats.MeanCycleLen < 2 {
		t.Errorf("MeanCycleLen = %f", stats.MeanCycleLen)
	}
}

func TestConvergeWithHeuristicOracle(t *testing.T) {
	// Local-search dynamics on a slightly larger instance: must converge
	// to a swap-stable state without error.
	r := rng.New(13)
	space, err := metric.UniformPoints(r, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(space, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	ev := core.NewEvaluator(inst)
	stats, err := Converge(ev, Config{Oracle: &bestresponse.LocalSearch{}}, 3, 0.2, r)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Converged != 3 {
		t.Fatalf("Converged = %d, want 3", stats.Converged)
	}
}
