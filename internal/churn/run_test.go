package churn

import (
	"context"
	"testing"

	"selfishnet/internal/bestresponse"
	"selfishnet/internal/core"
	"selfishnet/internal/metric"
	"selfishnet/internal/nash"
	"selfishnet/internal/rng"
	"selfishnet/internal/stats"
)

// nearestStart links every peer to its two nearest peers — a cheap,
// connected-ish starting overlay for driver tests.
func nearestStart(t *testing.T, inst *core.Instance) core.Profile {
	t.Helper()
	n := inst.N()
	p := core.NewProfile(n)
	for i := 0; i < n; i++ {
		s := core.Strategy{}
		for picked := 0; picked < 2; picked++ {
			best := -1
			for j := 0; j < n; j++ {
				if j != i && !s.Contains(j) &&
					(best == -1 || inst.Distance(i, j) < inst.Distance(i, best)) {
					best = j
				}
			}
			if best >= 0 {
				s.Add(best)
			}
		}
		if err := p.SetStrategy(i, s); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func streamsEqual(a, b stats.Stream) bool {
	if a.N() != b.N() {
		return false
	}
	if a.N() == 0 {
		return true
	}
	return a.Mean() == b.Mean() && a.Min() == b.Min() && a.Max() == b.Max() && a.Var() == b.Var()
}

// resultsEqual demands byte-identical runs: every counter, stream
// moment, the final profile and its cost.
func resultsEqual(t *testing.T, a, b Result, label string) {
	t.Helper()
	if a.Events != b.Events || a.Leaves != b.Leaves || a.Joins != b.Joins ||
		a.SkippedLeaves != b.SkippedLeaves || a.Repairs != b.Repairs ||
		a.Disconnected != b.Disconnected || a.Unstable != b.Unstable ||
		a.TailMoves != b.TailMoves || a.TailStable != b.TailStable {
		t.Fatalf("%s: counters differ: %+v vs %+v", label, a, b)
	}
	if !streamsEqual(a.Restabilize, b.Restabilize) {
		t.Fatalf("%s: restabilize streams differ", label)
	}
	if !streamsEqual(a.Overshoot, b.Overshoot) {
		t.Fatalf("%s: overshoot streams differ", label)
	}
	if !a.Final.Equal(b.Final) {
		t.Fatalf("%s: final profiles differ:\n%v\n%v", label, a.Final, b.Final)
	}
	if a.FinalCost != b.FinalCost {
		t.Fatalf("%s: final costs differ: %+v vs %+v", label, a.FinalCost, b.FinalCost)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	r := rng.New(113)
	inst := buildChurnInstance(t, r, churnCase{n: 8})
	start := nearestStart(t, inst)
	bad := []Config{
		{},
		{Instance: inst, Start: core.NewProfile(5), Rate: 1, Duration: 1, Seed: 1},
		{Instance: inst, Start: start, Rate: -1, Duration: 1, Seed: 1},
		{Instance: inst, Start: start, Rate: 1, Duration: 0, Seed: 1},
		{Instance: inst, Start: start, Rate: 1, Duration: 1, Seed: 0},
	}
	for k, cfg := range bad {
		if _, err := RunContext(context.Background(), cfg); err == nil {
			t.Fatalf("config %d: expected an error", k)
		}
	}
}

// TestRunDeterministicAcrossWidths pins the driver's determinism
// contract: identical results for the same seed, byte-identical at
// evaluator-pool width 1 vs 4.
func TestRunDeterministicAcrossWidths(t *testing.T) {
	r := rng.New(127)
	for _, c := range churnCases() {
		t.Run(c.name, func(t *testing.T) {
			inst := buildChurnInstance(t, r, c)
			cfg := Config{
				Instance: inst,
				Start:    nearestStart(t, inst),
				Rate:     0.2,
				Duration: 3,
				Repair:   RepairSelfish,
				Seed:     999,
			}
			a, err := RunContext(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunContext(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, a, b, "same seed")
			cfg.Workers = 4
			w, err := RunContext(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, a, w, "width 1 vs 4")
			if a.Events == 0 {
				t.Fatal("run produced no churn events; rate/duration too small for the test")
			}
		})
	}
}

// TestSustainedChurnTailReachesNash is the survival property: under
// sustained churn with selfish repair, letting the churn rate go to
// zero (everyone rejoins, the game stabilizes) must land on a profile
// the exact oracle certifies as a pure Nash equilibrium — and the
// whole trajectory must be byte-identical at pool widths 1 and 4.
func TestSustainedChurnTailReachesNash(t *testing.T) {
	r := rng.New(131)
	for _, n := range []int{16, 64} {
		t.Run(map[int]string{16: "n16", 64: "n64"}[n], func(t *testing.T) {
			// n=16 runs on a random 2-D point metric; n=64 on the unit
			// metric, where exact search prunes well enough to stay
			// exact at that size.
			var space metric.Space
			var err error
			if n <= 16 {
				space, err = metric.UniformPoints(r, n, 2)
			} else {
				space, err = metric.Uniform(n)
			}
			if err != nil {
				t.Fatal(err)
			}
			inst, err := core.NewInstance(space, 2.0)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Instance: inst,
				Start:    nearestStart(t, inst),
				Rate:     0.03,
				Duration: 2,
				Repair:   RepairSelfish,
				Seed:     uint64(1000 + n),
			}
			res, err := RunContext(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.TailStable {
				t.Fatalf("n=%d: tail did not stabilize in %d moves", n, res.TailMoves)
			}
			// Certification oracle: exact at n=16 (a true pure-Nash
			// certificate); local search at n=64, where exact best
			// response is exponential (the cardinality bound α·k + n
			// cannot close before k ≈ n/2) — nash.Check records the
			// oracle, so the verdict is honest oracle-stability.
			if n <= 16 {
				ok, err := nash.IsNash(core.NewEvaluator(inst), res.Final)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("n=%d: tail-stable profile is not Nash-certified", n)
				}
			} else {
				rep, err := nash.Check(core.NewEvaluator(inst), res.Final, &bestresponse.LocalSearch{}, bestresponse.Tolerance)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Stable {
					t.Fatalf("n=%d: tail-stable profile is not %s-stable (max gain %g)", n, rep.Oracle, rep.MaxGain)
				}
			}
			cfg.Workers = 4
			wide, err := RunContext(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, res, wide, "width 1 vs 4")
		})
	}
}
