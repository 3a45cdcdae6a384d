package dynamics

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"selfishnet/internal/bestresponse"
	"selfishnet/internal/core"
	"selfishnet/internal/rng"
)

// countingOracle wraps an oracle and counts its BestResponse calls and,
// when the inner oracle is exact, the candidates those calls resolved.
type countingOracle struct {
	inner bestresponse.Oracle
	calls int
	evals int
}

func (o *countingOracle) BestResponse(ev *core.Evaluator, p core.Profile, i int) (bestresponse.Result, error) {
	o.calls++
	res, err := o.inner.BestResponse(ev, p, i)
	if x, ok := o.inner.(*bestresponse.Exact); ok {
		o.evals += x.Evaluations()
	}
	return res, err
}

func (o *countingOracle) Clone() bestresponse.Oracle {
	return &countingOracle{inner: o.inner.Clone()}
}

func (o *countingOracle) Name() string { return o.inner.Name() }

// engineWork renders one line per trajCases() case × seed 1–5 × engine:
// the oracle work the run did and what it reported.
func engineWork(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, c := range trajCases() {
		for seed := uint64(1); seed <= 5; seed++ {
			for _, fresh := range []bool{true, false} {
				ev := trajEvaluator(t, c, seed)
				start := core.NewProfile(c.n)
				if c.start > 0 {
					start = RandomProfile(rng.New(seed+1), c.n, c.start)
				}
				oracle := &countingOracle{inner: c.oracle()}
				res, err := Run(ev, start, Config{
					Oracle:           oracle,
					Policy:           c.policy(),
					MaxSteps:         3000,
					Rand:             rng.New(seed + 2),
					DetectCycles:     true,
					ForceFresh:       fresh,
					ForceIncremental: !fresh,
				})
				if err != nil {
					t.Fatalf("%s seed %d fresh=%t: %v", c.name, seed, fresh, err)
				}
				engine := "incremental"
				if fresh {
					engine = "fresh"
				}
				evals := "-"
				if _, ok := oracle.inner.(*bestresponse.Exact); ok {
					evals = fmt.Sprint(oracle.evals)
				}
				cs := res.CacheStats
				fmt.Fprintf(&buf, "%s seed=%d engine=%s calls=%d evals=%s steps=%d converged=%t cycle=%t final=%016x finalcost=%t cache=%d/%d/%d\n",
					c.name, seed, engine, oracle.calls, evals, res.Steps, res.Converged, res.CycleDetected,
					res.Final.Hash(), res.FinalCostOK, cs.RowsReused, cs.RowsSettled, cs.RowsRelaxed)
			}
		}
	}
	return buf.Bytes()
}

// TestEngineOracleWorkGolden pins the work both engines do, not only the
// trajectory they trace: an engine that asked the oracle once more per
// step would still pass TestIncrementalTrajectoriesMatchFresh, so this
// test fixes oracle calls, exact-oracle candidate counts, steps,
// convergence and cycle flags, the final profile hash, whether the
// final cost came for free, and the batch row counters, per run.
func TestEngineOracleWorkGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/engine_work.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := engineWork(t); !bytes.Equal(got, want) {
		t.Fatalf("engine work moved\n--- got\n%s--- want\n%s", got, want)
	}
}
