package churn

import (
	"context"
	"errors"
	"testing"

	"selfishnet/internal/rng"
)

// TestRunContextUnfiredByteIdentical is the differential obligation of
// deadline propagation: a live context that never fires must leave the
// churn result byte-identical to a run under context.Background (the ==
// comparisons in resultsEqual).
func TestRunContextUnfiredByteIdentical(t *testing.T) {
	r := rng.New(211)
	inst := buildChurnInstance(t, r, churnCase{n: 10})
	cfg := Config{
		Instance: inst,
		Start:    nearestStart(t, inst),
		Rate:     0.2,
		Duration: 3,
		Seed:     999,
	}
	want, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, got, want, "live vs background context")
	if want.Events == 0 {
		t.Fatal("run produced no churn events; rate/duration too small for the test")
	}
}

// TestRunContextCancelled pins the cancellation surface: a pre-fired
// context aborts before the first event and returns ctx.Err() verbatim.
func TestRunContextCancelled(t *testing.T) {
	r := rng.New(223)
	inst := buildChurnInstance(t, r, churnCase{n: 8})
	cfg := Config{
		Instance: inst,
		Start:    nearestStart(t, inst),
		Rate:     0.2,
		Duration: 3,
		Seed:     7,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
