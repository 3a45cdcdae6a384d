package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"selfishnet/internal/rng"
)

func declSpec() Spec {
	return Spec{
		Name:        "unit-decl",
		Description: "declarative unit spec",
		Seed:        7,
		Metric:      MetricSpec{Family: "uniform", N: 8, Dim: 2},
		Game:        GameSpec{Alpha: 2},
		Start:       StartSpec{Kind: "random", Q: 0.25},
		Dynamics:    DynamicsSpec{Policy: "round-robin", MaxSteps: 4000},
		Measures:    []string{"converged", "mean-steps", "links"},
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := declSpec()
	spec.Measures = []string{"converged", "mean-steps", "links"}
	var buf bytes.Buffer
	if err := spec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpec(&buf)
	if err != nil {
		t.Fatalf("round-trip decode: %v\njson: %s", err, buf.String())
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, spec)
	}
}

func TestSpecJSONRejectsUnknownFields(t *testing.T) {
	if _, err := ReadSpec(strings.NewReader(`{"metric":{"family":"uniform","n":4},"game":{"alpha":1},"frobnicate":1}`)); err == nil {
		t.Fatal("unknown top-level field should be rejected")
	}
	if _, err := ReadSpec(strings.NewReader(`{"metric":{"family":"uniform","n":4,"warp":9},"game":{"alpha":1}}`)); err == nil {
		t.Fatal("unknown nested field should be rejected")
	}
}

// TestReadSpecRejectsKernelPin pins the legacy-spec decision: the
// instance alone picks the SSSP kernel, so a spec that still carries
// game.kernel fails decoding, while the same spec without the field is
// accepted (a pinned kernel never changed a table byte).
func TestReadSpecRejectsKernelPin(t *testing.T) {
	_, err := ReadSpec(strings.NewReader(`{"metric": {"family": "uniform", "n": 4}, "game": {"alpha": 2, "kernel": "heap"}}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "kernel"`) {
		t.Fatalf("spec with game.kernel: err = %v, want the decoder's unknown-field error", err)
	}
	if _, err := ReadSpec(strings.NewReader(`{"metric": {"family": "uniform", "n": 4}, "game": {"alpha": 2}}`)); err != nil {
		t.Fatalf("the same spec without game.kernel: %v", err)
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"missing metric", func(s *Spec) { s.Metric = MetricSpec{} }},
		{"unknown family", func(s *Spec) { s.Metric.Family = "hyperbolic" }},
		{"too few peers", func(s *Spec) { s.Metric.N = 1 }},
		{"negative alpha", func(s *Spec) { s.Game.Alpha = -1 }},
		{"unknown model", func(s *Spec) { s.Game.Model = "quadratic" }},
		{"unknown policy", func(s *Spec) { s.Dynamics.Policy = "chaotic" }},
		{"unknown oracle", func(s *Spec) { s.Dynamics.Oracle = "psychic" }},
		{"unknown start", func(s *Spec) { s.Start.Kind = "torus" }},
		{"unknown measure", func(s *Spec) { s.Measures = []string{"vibes"} }},
		{"experiment plus declarative", func(s *Spec) { s.Experiment = "e4-poa" }},
		{"experiment plus game", func(s *Spec) {
			*s = Spec{Experiment: "e4-poa", Game: GameSpec{Alpha: 9}}
		}},
		{"experiment plus dynamics", func(s *Spec) {
			*s = Spec{Experiment: "e4-poa", Dynamics: DynamicsSpec{Runs: 20}}
		}},
		{"start alongside replicas", func(s *Spec) { s.Dynamics.Runs = 5 }},
		{"churn measure without block", func(s *Spec) { s.Measures = []string{"tail-stable"} }},
		{"negative churn rate", func(s *Spec) { s.Churn = ChurnSpec{Rate: -1} }},
		{"negative churn duration", func(s *Spec) { s.Churn = ChurnSpec{Rate: 1, Duration: -2} }},
		{"unknown churn repair", func(s *Spec) { s.Churn = ChurnSpec{Rate: 1, Repair: "wishful"} }},
		{"experiment plus churn", func(s *Spec) {
			*s = Spec{Experiment: "e4-poa", Churn: ChurnSpec{Rate: 1}}
		}},
		{"link_prob without replicas", func(s *Spec) {
			s.Start = StartSpec{}
			s.Dynamics.LinkProb = 0.6
		}},
	}
	for _, tc := range cases {
		spec := declSpec()
		spec.Measures = nil
		tc.mut(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, spec)
		}
	}
	good := declSpec()
	good.Measures = []string{"converged", "mean-steps"}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	// Empty-but-present JSON collections on an experiment spec must not
	// trip the ignored-fields check (nil vs empty slice).
	if _, err := ReadSpec(strings.NewReader(`{"experiment":"e4-poa","measures":[]}`)); err != nil {
		t.Errorf("experiment spec with empty measures rejected: %v", err)
	}
}

// renderSpec runs the spec and renders its table to CSV bytes.
func renderSpec(t *testing.T, spec Spec, p Params) []byte {
	t.Helper()
	tb, err := RunSpec(spec, p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRunSpecDeterministicAndWidthInvariant(t *testing.T) {
	spec := declSpec()
	spec.Measures = nil      // default measures
	spec.Start = StartSpec{} // replica mode draws its own random starts
	spec.Dynamics.Runs = 4
	base := renderSpec(t, spec, Params{Parallelism: 1})
	if again := renderSpec(t, spec, Params{Parallelism: 1}); !bytes.Equal(base, again) {
		t.Fatal("same spec produced different tables on re-run")
	}
	if wide := renderSpec(t, spec, Params{Parallelism: 4}); !bytes.Equal(base, wide) {
		t.Fatalf("parallelism changed the table:\n par1: %s\n par4: %s", base, wide)
	}
}

func TestRunSpecAllMeasures(t *testing.T) {
	spec := declSpec()
	spec.Measures = MeasureNames()
	spec.Start = StartSpec{}
	spec.Dynamics.Runs = 3
	// The churn-* measures require a churn phase; the est-* measures an
	// estimate block.
	spec.Churn = ChurnSpec{Rate: 0.05, Duration: 1}
	spec.Estimate = EstimateSpec{Samples: 8, Landmarks: 4}
	tb, err := RunSpec(spec, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Headers) != 4+len(measureNames) {
		t.Fatalf("headers = %v", tb.Headers)
	}
	if len(tb.Rows) != 1 || len(tb.Rows[0]) != len(tb.Headers) {
		t.Fatalf("rows = %v", tb.Rows)
	}
	for i, cell := range tb.Rows[0] {
		if cell == "" {
			t.Errorf("empty cell for column %q", tb.Headers[i])
		}
	}
}

func TestRunSpecParamOverrides(t *testing.T) {
	spec := declSpec()
	spec.Measures = []string{"links"}
	a := renderSpec(t, spec, Params{})
	b := renderSpec(t, spec, Params{Seed: 99})
	if bytes.Equal(a, b) {
		t.Fatal("Params.Seed override had no effect")
	}
	c := renderSpec(t, spec, Params{Seed: spec.Seed})
	if !bytes.Equal(a, c) {
		t.Fatal("explicit Params.Seed equal to the spec seed changed the table")
	}
}

// TestFamilyAndStartListsMatchBuild ties the validation maps to the
// Build switches: every listed name must build, and names outside the
// lists must be rejected by Build too, so the two cannot drift apart.
func TestFamilyAndStartListsMatchBuild(t *testing.T) {
	buildable := map[string]MetricSpec{
		"uniform":   {Family: "uniform", N: 4},
		"unit":      {Family: "unit", N: 4},
		"clustered": {Family: "clustered", N: 6},
		"line":      {Family: "line", Positions: []float64{0, 1, 3}},
		"exp-line":  {Family: "exp-line", N: 4},
		"ring":      {Family: "ring", N: 5},
		"grid":      {Family: "grid", Rows: 2, Cols: 2},
		"points":    {Family: "points", Points: [][]float64{{0, 0}, {1, 1}}},
	}
	for family := range validFamilies {
		m, ok := buildable[family]
		if !ok {
			t.Errorf("validFamilies lists %q but this test has no build case; add one", family)
			continue
		}
		if _, err := m.Build(rng.New(1), 4); err != nil {
			t.Errorf("family %q is validated but does not build: %v", family, err)
		}
	}
	for family := range buildable {
		if !validFamilies[family] {
			t.Errorf("family %q builds but validFamilies rejects it", family)
		}
	}
	if _, err := (MetricSpec{Family: "bogus", N: 4}).Build(rng.New(1), 4); err == nil {
		t.Error("unknown family must fail Build")
	}

	for kind := range validStartKinds {
		s := StartSpec{Kind: kind}
		if kind == "links" {
			s.Links = [][2]int{{0, 1}}
		}
		if _, err := s.Build(4, rng.New(1)); err != nil {
			t.Errorf("start kind %q is validated but does not build: %v", kind, err)
		}
	}
	if _, err := (StartSpec{Kind: "bogus"}).Build(4, rng.New(1)); err == nil {
		t.Error("unknown start kind must fail Build")
	}
}

func TestSplitBudget(t *testing.T) {
	cases := []struct {
		requested, tasks, explicit int
		workers, inner             int
	}{
		{0, 0, 0, 0, 1}, // empty task list must not divide by zero
		{8, 0, 0, 0, 1},
		{8, 2, 0, 2, 4},
		{8, 13, 0, 8, 1},
		{1, 13, 0, 1, 1},
		{4, 1, 0, 1, 4}, // a single task keeps the whole budget
		{8, 4, 3, 4, 3}, // explicit inner width respected as-is
	}
	for _, tc := range cases {
		w, in := splitBudget(tc.requested, tc.tasks, tc.explicit)
		if w != tc.workers || in != tc.inner {
			t.Errorf("splitBudget(%d, %d, %d) = (%d, %d), want (%d, %d)",
				tc.requested, tc.tasks, tc.explicit, w, in, tc.workers, tc.inner)
		}
	}
}

func TestSeedDefaultConsolidated(t *testing.T) {
	if EffectiveSeed(0) != DefaultSeed || EffectiveSeed(5) != 5 {
		t.Fatal("EffectiveSeed fallback broken")
	}
	if (Params{}).EffectiveSeed() != DefaultSeed {
		t.Fatal("Params zero seed must map to DefaultSeed")
	}
	// A spec with seed 0 must behave exactly like seed DefaultSeed.
	spec := declSpec()
	spec.Seed = 0
	spec.Measures = []string{"links", "social-cost"}
	zero := renderSpec(t, spec, Params{})
	spec.Seed = DefaultSeed
	if def := renderSpec(t, spec, Params{}); !bytes.Equal(zero, def) {
		t.Fatal("seed 0 and DefaultSeed produced different tables")
	}
}

// TestChurnSpecNormalizeAndHash pins the churn block's canonical form:
// a zero block stays zero (existing specs hash unchanged), a non-zero
// block gets explicit defaults, and quick trims fold into the hash.
func TestChurnSpecNormalizeAndHash(t *testing.T) {
	plain := declSpec()
	if got := plain.Normalize().Churn; !got.isZero() {
		t.Fatalf("zero churn block normalized to %+v", got)
	}

	spec := declSpec()
	spec.Churn = ChurnSpec{Rate: 0.1}
	norm := spec.Normalize().Churn
	if norm.Repair != "selfish" || norm.Duration != 5 {
		t.Fatalf("churn defaults not made explicit: %+v", norm)
	}
	explicit := spec
	explicit.Churn = ChurnSpec{Rate: 0.1, Repair: "selfish", Duration: 5}
	h1, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := explicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("spec with implicit churn defaults hashes differently from its explicit form")
	}

	quick := spec
	quick.Quick = true
	if got := quick.Normalize().Churn.Duration; got != 1 {
		t.Fatalf("quick churn duration = %v, want trim to 1", got)
	}
}

// TestRunSpecChurnMeasures runs a spec with a churn phase end to end:
// every churn measure renders, and the table is byte-identical across
// re-runs and parallelism widths (the churn engine's determinism
// surfacing at the table layer).
func TestRunSpecChurnMeasures(t *testing.T) {
	spec := declSpec()
	spec.Measures = []string{
		"converged", "links",
		"churn-rate", "churn-repair", "churn-events",
		"restabilize-mean", "restabilize-max", "overshoot", "tail-stable",
	}
	spec.Churn = ChurnSpec{Rate: 0.1, Duration: 2}
	base := renderSpec(t, spec, Params{Parallelism: 1})
	if again := renderSpec(t, spec, Params{Parallelism: 1}); !bytes.Equal(base, again) {
		t.Fatal("churn spec produced different tables on re-run")
	}
	if wide := renderSpec(t, spec, Params{Parallelism: 4}); !bytes.Equal(base, wide) {
		t.Fatalf("parallelism changed the churn table:\n par1: %s\n par4: %s", base, wide)
	}
	tb, err := RunSpec(spec, Params{})
	if err != nil {
		t.Fatal(err)
	}
	row := tb.Rows[0]
	cols := map[string]string{}
	for i, h := range tb.Headers {
		cols[h] = row[i]
	}
	if cols["churn-rate"] != "0.1000" && cols["churn-rate"] != "0.1" {
		t.Errorf("churn-rate cell = %q", cols["churn-rate"])
	}
	if cols["churn-repair"] != "selfish" {
		t.Errorf("churn-repair cell = %q", cols["churn-repair"])
	}
	if cols["churn-events"] == "0" || cols["churn-events"] == "" {
		t.Errorf("churn-events cell = %q, want events at rate 0.1 over 2s", cols["churn-events"])
	}
	if cols["tail-stable"] != "true" && cols["tail-stable"] != "false" {
		t.Errorf("tail-stable cell = %q", cols["tail-stable"])
	}
}

// TestSweepChurnAxes pins the churn axes: validation requires a base
// churn block, repair names are checked, and the grid nests churn rate
// then repair innermost.
func TestSweepChurnAxes(t *testing.T) {
	sw := Sweep{
		Name:       "churn-sweep",
		Base:       declSpec(),
		Alphas:     []float64{1, 4},
		ChurnRates: []float64{0.05, 0.2},
		Repairs:    []string{"selfish", "nearest"},
	}
	sw.Base.Measures = nil
	if err := sw.Validate(); err == nil {
		t.Fatal("churn axes without a base churn block should be rejected")
	}
	sw.Base.Churn = ChurnSpec{Rate: 0.1, Duration: 1}
	if err := sw.Validate(); err != nil {
		t.Fatal(err)
	}
	badRepair := sw
	badRepair.Repairs = []string{"selfish", "wishful"}
	if err := badRepair.Validate(); err == nil {
		t.Fatal("unknown repair axis value should be rejected")
	}
	negRate := sw
	negRate.ChurnRates = []float64{-0.1}
	if err := negRate.Validate(); err == nil {
		t.Fatal("negative churn-rate axis should be rejected")
	}

	points := sw.Points()
	if len(points) != 8 {
		t.Fatalf("grid has %d points, want 8 (2 α × 2 rates × 2 repairs)", len(points))
	}
	want := []struct {
		alpha, rate float64
		repair      string
	}{
		{1, 0.05, "selfish"}, {1, 0.05, "nearest"}, {1, 0.2, "selfish"}, {1, 0.2, "nearest"},
		{4, 0.05, "selfish"}, {4, 0.05, "nearest"}, {4, 0.2, "selfish"}, {4, 0.2, "nearest"},
	}
	for i, w := range want {
		p := points[i]
		if p.Game.Alpha != w.alpha || p.Churn.Rate != w.rate || p.Churn.Repair != w.repair {
			t.Fatalf("point %d = α %v rate %v repair %q, want %+v",
				i, p.Game.Alpha, p.Churn.Rate, p.Churn.Repair, w)
		}
	}
}

// TestSweepChurnRunGridsOverRateAndRepair runs a small churn sweep end
// to end: rate × repair × α in one table, rows self-describing via the
// echo measures, byte-identical at any width.
func TestSweepChurnRunGridsOverRateAndRepair(t *testing.T) {
	sw := Sweep{
		Name:       "churn-grid",
		Base:       declSpec(),
		ChurnRates: []float64{0.05, 0.2},
		Repairs:    []string{"selfish", "none"},
	}
	sw.Base.Churn = ChurnSpec{Rate: 0.1, Duration: 1}
	sw.Base.Measures = []string{"churn-rate", "churn-repair", "churn-events", "tail-stable"}
	render := func(par int) []byte {
		tb, err := sw.Run(Params{}, par)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tb.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := render(1)
	if got := render(4); !bytes.Equal(seq, got) {
		t.Fatalf("churn sweep differs across widths:\n%s\nvs\n%s", seq, got)
	}
	tb, err := sw.Run(Params{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("churn sweep rows = %d, want 4", len(tb.Rows))
	}
	// Echo measures make each row self-describing.
	repairCol := -1
	for i, h := range tb.Headers {
		if h == "churn-repair" {
			repairCol = i
		}
	}
	if repairCol < 0 {
		t.Fatalf("no churn-repair column in %v", tb.Headers)
	}
	wantRepairs := []string{"selfish", "none", "selfish", "none"}
	for i, w := range wantRepairs {
		if tb.Rows[i][repairCol] != w {
			t.Fatalf("row %d repair = %q, want %q", i, tb.Rows[i][repairCol], w)
		}
	}
}

func TestSweepValidateAndPoints(t *testing.T) {
	sw := Sweep{
		Name:   "unit-sweep",
		Base:   declSpec(),
		Alphas: []float64{1, 4},
		Ns:     []int{6, 8},
		Seeds:  []uint64{1, 2},
	}
	sw.Base.Measures = nil
	if err := sw.Validate(); err != nil {
		t.Fatal(err)
	}
	points := sw.Points()
	if len(points) != 8 {
		t.Fatalf("grid has %d points, want 8", len(points))
	}
	// seed-major, then n, then alpha.
	want := []struct {
		seed  uint64
		n     int
		alpha float64
	}{
		{1, 6, 1}, {1, 6, 4}, {1, 8, 1}, {1, 8, 4},
		{2, 6, 1}, {2, 6, 4}, {2, 8, 1}, {2, 8, 4},
	}
	for i, w := range want {
		p := points[i]
		if p.Seed != w.seed || p.Metric.N != w.n || p.Game.Alpha != w.alpha {
			t.Fatalf("point %d = seed %d n %d α %v, want %+v", i, p.Seed, p.Metric.N, p.Game.Alpha, w)
		}
	}

	fixed := sw
	fixed.Base.Metric = MetricSpec{Family: "line", Positions: []float64{0, 1, 3}}
	if err := fixed.Validate(); err == nil {
		t.Fatal("n-axis over fixed-geometry metric should be rejected")
	}
	native := sw
	native.Base = Spec{Experiment: "e4-poa"}
	if err := native.Validate(); err == nil {
		t.Fatal("native base should be rejected")
	}
	zeroSeed := sw
	zeroSeed.Seeds = []uint64{0, 1}
	if err := zeroSeed.Validate(); err == nil {
		t.Fatal("seed-axis value 0 should be rejected (would duplicate DefaultSeed)")
	}
	negGamma := sw
	negGamma.Gammas = []float64{-0.5}
	if err := negGamma.Validate(); err == nil {
		t.Fatal("negative gamma axis should be rejected")
	}
}

func TestSweepRunWidthInvariant(t *testing.T) {
	sw := Sweep{
		Name:   "unit-sweep-run",
		Base:   declSpec(),
		Alphas: []float64{1, 4},
		Ns:     []int{6, 8},
	}
	sw.Base.Measures = []string{"converged", "links", "social-cost", "c-over-lb"}
	render := func(par int) []byte {
		tb, err := sw.Run(Params{}, par)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tb.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := render(1)
	if len(seq) == 0 {
		t.Fatal("empty sweep table")
	}
	for _, par := range []int{2, 4} {
		if got := render(par); !bytes.Equal(seq, got) {
			t.Fatalf("sweep table at parallelism %d differs from sequential:\n%s\nvs\n%s", par, got, seq)
		}
	}
	tb, err := sw.Run(Params{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("sweep rows = %d, want 4", len(tb.Rows))
	}
}

func TestSweepJSONRoundTrip(t *testing.T) {
	sw := Sweep{
		Name:        "rt-sweep",
		Description: "round-trip",
		Base:        declSpec(),
		Alphas:      []float64{1, 2},
		Gammas:      []float64{0, 0.5},
	}
	sw.Base.Measures = []string{"links"}
	var buf bytes.Buffer
	if err := sw.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSweep(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sw) {
		t.Fatalf("sweep round-trip mismatch:\n got %+v\nwant %+v", got, sw)
	}
	if _, err := ReadSweep(strings.NewReader(`{"base":{"metric":{"family":"uniform","n":4},"game":{"alpha":1}},"bogus":[]}`)); err == nil {
		t.Fatal("unknown sweep field should be rejected")
	}
}
