package scenario

import (
	"bytes"
	"strings"
	"testing"

	"selfishnet/internal/bestresponse"
)

// TestNormalizeFillsDefaults pins the canonical form: every engine
// default becomes explicit, auto-dispatch spellings collapse, and the
// result is idempotent and still valid.
func TestNormalizeFillsDefaults(t *testing.T) {
	spec := Spec{
		Metric:   MetricSpec{Family: "uniform", N: 8},
		Game:     GameSpec{Alpha: 2},
		Dynamics: DynamicsSpec{Engine: "auto"},
	}
	n := spec.Normalize()
	if n.Seed != DefaultSeed {
		t.Errorf("Seed = %d, want DefaultSeed %d", n.Seed, DefaultSeed)
	}
	if n.Metric.Dim != 2 {
		t.Errorf("uniform Dim = %d, want 2", n.Metric.Dim)
	}
	if n.Game.Model != "stretch" {
		t.Errorf("Model = %q, want stretch", n.Game.Model)
	}
	if n.Dynamics.Engine != "" {
		t.Errorf("auto spelling should collapse to \"\": engine %q", n.Dynamics.Engine)
	}
	if n.Start.Kind != "empty" {
		t.Errorf("Start.Kind = %q, want empty", n.Start.Kind)
	}
	if n.Dynamics.Policy != "round-robin" || n.Dynamics.Oracle != "exact" {
		t.Errorf("dynamics defaults = %q/%q", n.Dynamics.Policy, n.Dynamics.Oracle)
	}
	if n.Dynamics.Runs != 1 || n.Dynamics.MaxSteps != 5000 {
		t.Errorf("runs/max_steps = %d/%d, want 1/5000", n.Dynamics.Runs, n.Dynamics.MaxSteps)
	}
	if n.Dynamics.Tol != bestresponse.Tolerance {
		t.Errorf("Tol = %v, want bestresponse.Tolerance", n.Dynamics.Tol)
	}
	if strings.Join(n.Measures, ",") != strings.Join(DefaultMeasures, ",") {
		t.Errorf("Measures = %v, want DefaultMeasures", n.Measures)
	}
	if err := n.Validate(); err != nil {
		t.Errorf("normalized spec fails Validate: %v", err)
	}
	if again := n.Normalize(); hashOf(t, again) != hashOf(t, n) {
		t.Error("Normalize is not idempotent")
	}
}

// hashOf is a test helper: the spec's hash, failing the test on error.
func hashOf(t *testing.T, s Spec) string {
	t.Helper()
	h, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNormalizeQuickTrimsAndReplicaMode(t *testing.T) {
	spec := Spec{
		Quick:    true,
		Metric:   MetricSpec{Family: "clustered", N: 10},
		Game:     GameSpec{Alpha: 1},
		Dynamics: DynamicsSpec{Runs: 10, MaxSteps: 9000},
	}
	n := spec.Normalize()
	if n.Dynamics.Runs != 2 || n.Dynamics.MaxSteps != 1500 {
		t.Errorf("quick trims: runs/max_steps = %d/%d, want 2/1500", n.Dynamics.Runs, n.Dynamics.MaxSteps)
	}
	if n.Dynamics.LinkProb != 0.3 {
		t.Errorf("replica LinkProb = %v, want 0.3", n.Dynamics.LinkProb)
	}
	if n.Metric.Clusters != 3 || n.Metric.Radius != 0.02 {
		t.Errorf("clustered defaults = %d/%v", n.Metric.Clusters, n.Metric.Radius)
	}
	// Single-run specs must NOT gain a link_prob (Validate rejects it).
	single := Spec{Metric: MetricSpec{Family: "uniform", N: 6}, Game: GameSpec{Alpha: 1}}.Normalize()
	if single.Dynamics.LinkProb != 0 {
		t.Errorf("single-run LinkProb = %v, want 0", single.Dynamics.LinkProb)
	}
	if err := single.Validate(); err != nil {
		t.Errorf("normalized single-run spec fails Validate: %v", err)
	}
}

// TestNormalizeExperimentSpec pins that native routing specs only get
// seed normalization — declarative defaults would make them invalid.
func TestNormalizeExperimentSpec(t *testing.T) {
	n := Spec{Name: "e4-poa", Experiment: "e4-poa"}.Normalize()
	if n.Seed != DefaultSeed {
		t.Errorf("Seed = %d, want %d", n.Seed, DefaultSeed)
	}
	if err := n.Validate(); err != nil {
		t.Errorf("normalized experiment spec fails Validate: %v", err)
	}
}

// TestNormalizePreservesResults is the load-bearing property for the
// serve cache: a spec and its normalized form render byte-identical
// tables.
func TestNormalizePreservesResults(t *testing.T) {
	specs := []Spec{
		{Metric: MetricSpec{Family: "uniform", N: 7}, Game: GameSpec{Alpha: 2}},
		{Metric: MetricSpec{Family: "line", Positions: []float64{0, 1, 2, 3}}, Game: GameSpec{Alpha: 1.5},
			Start: StartSpec{Kind: "random"}},
		{Quick: true, Metric: MetricSpec{Family: "unit", N: 12}, Game: GameSpec{Alpha: 3},
			Dynamics: DynamicsSpec{Runs: 6}},
	}
	for i, spec := range specs {
		raw := renderSpec(t, spec, Params{})
		norm := renderSpec(t, spec.Normalize(), Params{})
		if !bytes.Equal(raw, norm) {
			t.Errorf("spec %d: normalized form renders differently\nraw:  %s\nnorm: %s", i, raw, norm)
		}
	}
}

func TestSpecHashStability(t *testing.T) {
	a := Spec{Metric: MetricSpec{Family: "uniform", N: 8}, Game: GameSpec{Alpha: 2}}
	// The same workload written with defaults spelled out.
	b := Spec{
		Seed:   DefaultSeed,
		Metric: MetricSpec{Family: "uniform", N: 8, Dim: 2},
		Game:   GameSpec{Alpha: 2, Model: "stretch"},
		Start:  StartSpec{Kind: "empty"},
		Dynamics: DynamicsSpec{Policy: "round-robin", Oracle: "exact", MaxSteps: 5000,
			Runs: 1, Tol: bestresponse.Tolerance, Engine: "auto"},
		Measures: append([]string(nil), DefaultMeasures...),
	}
	ha, hb := hashOf(t, a), hashOf(t, b)
	if ha != hb {
		t.Errorf("equivalent specs hash differently:\n%s\n%s", ha, hb)
	}
	if !strings.HasPrefix(ha, "sha256:") || len(ha) != len("sha256:")+64 {
		t.Errorf("hash format = %q", ha)
	}
	c := a
	c.Game.Alpha = 3
	if hc := hashOf(t, c); hc == ha {
		t.Error("different alphas must hash differently")
	}
}

func TestSweepNormalizeAndHash(t *testing.T) {
	sw := Sweep{
		Base:   Spec{Metric: MetricSpec{Family: "uniform", N: 6}, Game: GameSpec{Alpha: 1}},
		Alphas: []float64{1, 2},
		Ns:     []int{6, 8},
	}
	n := sw.Normalize()
	if n.Base.Dynamics.Policy != "round-robin" {
		t.Errorf("base not normalized: policy %q", n.Base.Dynamics.Policy)
	}
	if len(n.Alphas) != 2 || n.Alphas[0] != 1 || n.Alphas[1] != 2 {
		t.Errorf("axes must be preserved verbatim: %v", n.Alphas)
	}
	h1, err := sw.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := sw.Normalize().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("sweep hash must be normalization-invariant")
	}
	re := sw
	re.Alphas = []float64{2, 1}
	h3, err := re.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Error("axis order determines row order and must change the hash")
	}
}
