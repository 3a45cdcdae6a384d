package dynamics

import (
	"context"
	"errors"
	"testing"

	"selfishnet/internal/core"
	"selfishnet/internal/rng"
)

// TestRunContextUnfiredByteIdentical is the differential obligation of
// deadline propagation: threading a live context that never fires must
// leave the trajectory byte-identical to Run — same final profile, step
// count, and convergence flags, compared with == throughout.
func TestRunContextUnfiredByteIdentical(t *testing.T) {
	for _, pol := range policies() {
		t.Run(pol.Name(), func(t *testing.T) {
			cfg := Config{Policy: pol, Rand: rng.New(7)}
			ev := lineEvaluator(t, []float64{0, 1, 2, 3, 4, 5}, 2)
			want, err := Run(ev, core.NewProfile(6), cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ev2 := lineEvaluator(t, []float64{0, 1, 2, 3, 4, 5}, 2)
			cfg.Rand = rng.New(7)
			got, err := RunContext(ctx, ev2, core.NewProfile(6), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Final.Equal(want.Final) || got.Steps != want.Steps ||
				got.Converged != want.Converged || got.CycleDetected != want.CycleDetected {
				t.Fatalf("RunContext diverged from Run:\n%+v\n%+v", got, want)
			}
		})
	}
}

// TestRunContextCancelled pins the cancellation surface: a pre-fired
// context aborts before the first step with ctx.Err() verbatim, and a
// context fired mid-run (via OnStep) halts at the next step boundary.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev := lineEvaluator(t, []float64{0, 1, 2, 3, 4}, 2)
	if _, err := RunContext(ctx, ev, core.NewProfile(5), Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: got %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	steps := 0
	cfg := Config{OnStep: func(StepEvent) {
		steps++
		cancel() // fire after the first applied move
	}}
	ev = lineEvaluator(t, []float64{0, 1, 2, 3, 4}, 2)
	if _, err := RunContext(ctx, ev, core.NewProfile(5), cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run: got %v, want context.Canceled", err)
	}
	if steps != 1 {
		t.Fatalf("run took %d steps after cancellation, want exactly 1", steps)
	}
}

// TestReplicasContextUnfiredByteIdentical extends the differential
// obligation to replica mode at width > 1: under a live context that
// never fires, every replica's result must match a run under
// context.Background exactly.
func TestReplicasContextUnfiredByteIdentical(t *testing.T) {
	cfg := Config{MaxSteps: 500, Parallelism: 3}
	ev := lineEvaluator(t, []float64{0, 1, 2, 3, 4, 5, 6, 7}, 2)
	want, err := ReplicasContext(context.Background(), ev, cfg, 4, 0.3, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	live, stop := context.WithCancel(context.Background())
	defer stop()
	got, err := ReplicasContext(live, ev, cfg, 4, 0.3, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replica counts differ: %d vs %d", len(got), len(want))
	}
	for k := range want {
		if !got[k].Final.Equal(want[k].Final) || got[k].Steps != want[k].Steps ||
			got[k].Converged != want[k].Converged {
			t.Fatalf("replica %d diverged:\n%+v\n%+v", k, got[k], want[k])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReplicasContext(ctx, ev, cfg, 4, 0.3, rng.New(11)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replicas: got %v, want context.Canceled", err)
	}
}
