package dynamics

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"selfishnet/internal/bestresponse"
	"selfishnet/internal/core"
	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

// tieCase is one tie-heavy dynamics run: a metric whose distances
// repeat, so many candidate moves score equal and the oracles' tie
// rules (first found wins) decide the trajectory.
type tieCase struct {
	name     string
	space    func(t *testing.T) metric.Space
	alpha    float64
	oracle   bestresponse.Oracle
	maxSteps int
}

// tieCases mirrors the tie-heavy sweep-dyn grids: greedy on the unit
// metric (bfs kernel) at n=64 and 96, local search on an integer line
// (dial kernel) at n=64, and greedy on the ring.
func tieCases() []tieCase {
	unit := func(n int) func(t *testing.T) metric.Space {
		return func(t *testing.T) metric.Space {
			s, err := metric.UniformImplicit(n)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	intLine := func(t *testing.T) metric.Space {
		r := rng.New(7)
		pos := make([]float64, 64)
		x := 0.0
		for i := range pos {
			x += float64(1 + r.Intn(2))
			pos[i] = x
		}
		s, err := metric.Line(pos)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ring := func(t *testing.T) metric.Space {
		s, err := metric.Ring(64, 1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var out []tieCase
	for _, n := range []int{64, 96} {
		for _, alpha := range []float64{1.5, 4} {
			out = append(out, tieCase{fmt.Sprintf("greedy-unit-%d", n), unit(n), alpha, &bestresponse.Greedy{}, 300})
		}
	}
	for _, alpha := range []float64{2, 6} {
		out = append(out, tieCase{"local-line-64", intLine, alpha, &bestresponse.LocalSearch{}, 220})
	}
	for _, alpha := range []float64{1.5, 3} {
		out = append(out, tieCase{"greedy-ring-64", ring, alpha, &bestresponse.Greedy{}, 200})
	}
	return out
}

// tieHeavyWork renders one line per tieCases() case: the oracle calls,
// applied steps, convergence and the final profile hash of a
// round-robin run from the empty profile.
func tieHeavyWork(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, c := range tieCases() {
		inst, err := core.NewInstance(c.space(t), c.alpha)
		if err != nil {
			t.Fatal(err)
		}
		n := inst.N()
		oracle := &countingOracle{inner: c.oracle}
		res, err := Run(core.NewEvaluator(inst), core.NewProfile(n), Config{
			Oracle:   oracle,
			Policy:   &RoundRobin{},
			MaxSteps: c.maxSteps,
		})
		if err != nil {
			t.Fatalf("%s alpha=%g: %v", c.name, c.alpha, err)
		}
		fmt.Fprintf(&buf, "%s alpha=%g calls=%d steps=%d converged=%t final=%016x\n",
			c.name, c.alpha, oracle.calls, res.Steps, res.Converged, res.Final.Hash())
	}
	return buf.Bytes()
}

// TestTieHeavyTrajectoriesGolden pins trajectories on metrics where
// candidate moves tie: engine_work.golden covers only uniform random
// points, whose distances almost never repeat, so an oracle that broke
// a tie differently would pass it. The golden was rendered before the
// oracles moved onto DeviationBatch's move base.
func TestTieHeavyTrajectoriesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/tie_heavy.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := tieHeavyWork(t); !bytes.Equal(got, want) {
		t.Fatalf("tie-heavy trajectories moved\n--- got\n%s--- want\n%s", got, want)
	}
}
