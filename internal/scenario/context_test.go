package scenario

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestRunSpecContextUnfiredByteIdentical is the tentpole differential
// obligation: RunSpecContext with a live context that never fires
// renders a table byte-identical to RunSpec, across every execution
// mode the engine dispatches (single run, replica fan-out, churn phase).
func TestRunSpecContextUnfiredByteIdentical(t *testing.T) {
	single := declSpec()
	single.Quick = true

	replica := declSpec()
	replica.Quick = true
	replica.Start = StartSpec{}
	replica.Dynamics.Runs = 4

	churned := declSpec()
	churned.Quick = true
	churned.Churn = ChurnSpec{Rate: 0.05, Duration: 1}
	churned.Measures = nil // default measure list, includes churn columns

	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"single", single},
		{"replica", replica},
		{"churn", churned},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := RunSpec(tc.spec, Params{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			got, err := RunSpecContext(ctx, tc.spec, Params{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			var a, b bytes.Buffer
			if err := want.WriteCSV(&a); err != nil {
				t.Fatal(err)
			}
			if err := got.WriteCSV(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("RunSpecContext table differs from RunSpec:\n%s\nvs\n%s", b.String(), a.String())
			}
		})
	}
}

// TestRunSpecContextCancelled pins that cancellation surfaces as the
// context error verbatim, for declarative and native experiment specs
// alike (experiments check the context before dispatch).
func TestRunSpecContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := declSpec()
	spec.Quick = true
	if _, err := RunSpecContext(ctx, spec, Params{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("declarative: got %v, want context.Canceled", err)
	}

	// A deadline that fires mid-run must abort promptly, not run to
	// completion: give a heavyweight spec (large n, replica fan-out —
	// far slower than the timer) one microsecond.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer dcancel()
	heavy := declSpec()
	heavy.Start = StartSpec{}
	heavy.Metric.N = 64
	heavy.Dynamics.Runs = 8
	heavy.Dynamics.MaxSteps = 100000
	if _, err := RunSpecContext(dctx, heavy, Params{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline: got %v, want context.DeadlineExceeded", err)
	}
}

// TestRunPointContextUnfiredByteIdentical extends the differential
// obligation to the sweep point runner — the entry the fabric workers
// and job runners use: a live context that never fires renders the row
// a context.Background run renders.
func TestRunPointContextUnfiredByteIdentical(t *testing.T) {
	spec := declSpec()
	spec.Quick = true
	want, err := RunPointContext(context.Background(), spec, spec.Measures, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := RunPointContext(ctx, spec, spec.Measures, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.NonEquilibrium != want.NonEquilibrium || len(got.Row) != len(want.Row) {
		t.Fatalf("point results differ:\n%+v\n%+v", got, want)
	}
	for k := range want.Row {
		if got.Row[k] != want.Row[k] {
			t.Fatalf("row cell %d differs: %q vs %q", k, got.Row[k], want.Row[k])
		}
	}
}

// TestSweepRunContextNoCallbackAfterReturn pins the join contract: once
// RunContext returns — even via cancellation mid-sweep — no progress
// callback invocation can still be in flight. The callback writes to
// unsynchronized state that the test also writes after return, so any
// straggler is a data race under -race and a lost-wakeup flake without.
func TestSweepRunContextNoCallbackAfterReturn(t *testing.T) {
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		sw := contextSweep()
		sentinel := 0
		var fired sync.WaitGroup
		fired.Add(1)
		var once sync.Once
		_, err := sw.RunContext(ctx, Params{}, 4, func(done, total int) {
			sentinel++
			once.Do(func() { fired.Done(); cancel() })
		})
		fired.Wait()
		if err == nil {
			// The sweep can win the race and complete before the
			// cancellation lands; that is a valid outcome.
			cancel()
		} else if !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: err = %v, want context.Canceled or nil", i, err)
		}
		sentinel = -1 // races with any straggler callback under -race
		cancel()
	}
}
