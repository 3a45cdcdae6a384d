package scenario

import (
	"bytes"
	"context"
	"testing"
)

// pointsTestSweep is a 2×2×2 grid (seeds × alphas × gammas) over a
// small uniform metric, quick mode folded into the base the way the
// serve layer does before handing a sweep to the fabric.
func pointsTestSweep() Sweep {
	return Sweep{
		Name: "points-equality",
		Base: Spec{
			Quick:  true,
			Seed:   1,
			Metric: MetricSpec{Family: "uniform", N: 8},
			Game:   GameSpec{Alpha: 2},
		},
		Alphas: []float64{1, 4},
		Seeds:  []uint64{1, 2},
		Gammas: []float64{0, 0.1},
	}
}

func TestEnumeratePointsHashesAndOrder(t *testing.T) {
	sw := pointsTestSweep()
	pts, err := sw.EnumeratePoints()
	if err != nil {
		t.Fatal(err)
	}
	specs := sw.Points()
	if len(pts) != len(specs) {
		t.Fatalf("EnumeratePoints: %d points, Points: %d", len(pts), len(specs))
	}
	seen := make(map[string]bool)
	for i, pt := range pts {
		if pt.Index != i {
			t.Errorf("point %d has index %d", i, pt.Index)
		}
		wantHash, err := specs[i].Hash()
		if err != nil {
			t.Fatal(err)
		}
		if pt.Hash != wantHash {
			t.Errorf("point %d: hash %s, want spec hash %s", i, pt.Hash, wantHash)
		}
		if seen[pt.Hash] {
			t.Errorf("point %d: duplicate hash %s in a distinct-axes grid", i, pt.Hash)
		}
		seen[pt.Hash] = true
	}
}

// TestPointRunsConcatenateToSweepRun is the satellite acceptance test:
// running every grid point individually through RunPointContext and
// reassembling with Assemble must reproduce Sweep.Run byte-for-byte.
func TestPointRunsConcatenateToSweepRun(t *testing.T) {
	sw := pointsTestSweep()

	whole, err := sw.Run(Params{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := whole.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	pts, err := sw.EnumeratePoints()
	if err != nil {
		t.Fatal(err)
	}
	measures := sw.Measures()
	results := make([]PointResult, len(pts))
	for i, pt := range pts {
		res, err := RunPointContext(context.Background(), pt.Spec, measures, 1)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		results[i] = res
	}
	assembled, err := sw.Assemble(results)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := assembled.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("concatenated point runs differ from Sweep.Run:\ngot:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
	}
}

// TestPointRunsConcatenateWithChurnAxes covers the churn-axes table
// footer (the axes note names churn-rate×repair) through the same
// point-wise path.
func TestPointRunsConcatenateWithChurnAxes(t *testing.T) {
	sw := Sweep{
		Name: "points-churn",
		Base: Spec{
			Quick:  true,
			Seed:   1,
			Metric: MetricSpec{Family: "uniform", N: 8},
			Game:   GameSpec{Alpha: 2},
			Churn:  ChurnSpec{Rate: 0.05, Duration: 1},
			Measures: []string{
				"converged", "links", "churn-rate", "churn-repair", "churn-events",
			},
		},
		ChurnRates: []float64{0.02, 0.1},
		Repairs:    []string{"selfish", "none"},
	}

	whole, err := sw.Run(Params{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := whole.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	pts, err := sw.EnumeratePoints()
	if err != nil {
		t.Fatal(err)
	}
	results := make([]PointResult, len(pts))
	for i, pt := range pts {
		res, err := RunPointContext(context.Background(), pt.Spec, sw.Measures(), 1)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		results[i] = res
	}
	assembled, err := sw.Assemble(results)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := assembled.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("churn-axes point runs differ from Sweep.Run:\ngot:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
	}
}

func TestAssembleRejectsBadResults(t *testing.T) {
	sw := pointsTestSweep()
	pts, err := sw.EnumeratePoints()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Assemble(make([]PointResult, len(pts)-1)); err == nil {
		t.Error("Assemble accepted an incomplete result set")
	}
	short := make([]PointResult, len(pts))
	for i := range short {
		short[i] = PointResult{Row: []string{"1"}}
	}
	if _, err := sw.Assemble(short); err == nil {
		t.Error("Assemble accepted rows narrower than the header set")
	}
}

func TestMeasuresDefaults(t *testing.T) {
	sw := pointsTestSweep()
	got := sw.Measures()
	if len(got) != len(DefaultMeasures) {
		t.Fatalf("Measures() = %v, want defaults %v", got, DefaultMeasures)
	}
	for i, m := range DefaultMeasures {
		if got[i] != m {
			t.Fatalf("Measures()[%d] = %q, want %q", i, got[i], m)
		}
	}
	// Mutating the returned slice must not leak into the sweep.
	got[0] = "mutated"
	if sw.Measures()[0] == "mutated" {
		t.Error("Measures() returned an aliased slice")
	}
}
