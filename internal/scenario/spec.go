package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"selfishnet/internal/bestresponse"
	"selfishnet/internal/churn"
	"selfishnet/internal/core"
	"selfishnet/internal/dynamics"
	"selfishnet/internal/metric"
	"selfishnet/internal/opt"
	"selfishnet/internal/rng"
)

// Spec is a declarative, serializable description of one experiment.
// Either Experiment names a registered native runner (the 13 paper
// reproductions), or the declarative fields describe a workload the
// generic engine executes: build the metric space, build the game,
// build the start profile, run best-response dynamics, record the
// requested measures.
//
// The zero value of every optional field means "default", so a minimal
// declarative spec is just a metric family, a size and an α.
type Spec struct {
	// Name labels the spec in tables and the catalog.
	Name string `json:"name,omitempty"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
	// Experiment routes the run to a registered native runner (e.g.
	// "e4-poa"). When set, the declarative fields below must be empty.
	Experiment string `json:"experiment,omitempty"`
	// Seed drives all randomness (0 selects DefaultSeed).
	Seed uint64 `json:"seed,omitempty"`
	// Quick trims replica counts and step budgets for smoke tests.
	Quick bool `json:"quick,omitempty"`

	Metric   MetricSpec   `json:"metric,omitzero"`
	Game     GameSpec     `json:"game,omitzero"`
	Start    StartSpec    `json:"start,omitzero"`
	Dynamics DynamicsSpec `json:"dynamics,omitzero"`
	// Churn, when set, runs a churn phase after the dynamics: the
	// chosen final profile becomes the starting overlay of a seeded
	// join/leave event stream (internal/churn), and the churn-* measures
	// report its outcome. Zero means no churn phase.
	Churn ChurnSpec `json:"churn,omitzero"`
	// Estimate, when set, enables the sampled est-* measures on the
	// chosen final profile: seeded source-sampled social cost and
	// landmark mean stretch with 95% confidence intervals
	// (core.EstimateSocialCost / core.EstimateMeanTerm). Zero means no
	// estimator phase and the est-* measures are rejected.
	Estimate EstimateSpec `json:"estimate,omitzero"`
	// Measures are the columns to record, in order (see Measures() for
	// the known names). Empty selects DefaultMeasures.
	Measures []string `json:"measures,omitempty"`
}

// MetricSpec describes a metric-space family plus its size parameters.
type MetricSpec struct {
	// Family is one of "uniform", "unit", "clustered", "line",
	// "exp-line", "ring", "grid", "points". "uniform" draws random
	// points in the unit cube; "unit" is the uniform *metric* (every
	// pair at distance 1, the hop-count world), which the evaluation
	// core serves with its word-parallel BFS kernel — the family for
	// large-n scaling scenarios.
	Family string `json:"family"`
	// N is the peer count for sized families (uniform, clustered,
	// exp-line, ring).
	N int `json:"n,omitempty"`
	// Dim is the dimension for "uniform" (default 2).
	Dim int `json:"dim,omitempty"`
	// Clusters is the cluster count for "clustered" (default 3).
	Clusters int `json:"clusters,omitempty"`
	// Radius is the cluster radius for "clustered" (default 0.02) and
	// the circle radius for "ring" (default 1).
	Radius float64 `json:"radius,omitempty"`
	// Rows/Cols/Spacing shape the "grid" family (spacing default 1).
	Rows    int     `json:"rows,omitempty"`
	Cols    int     `json:"cols,omitempty"`
	Spacing float64 `json:"spacing,omitempty"`
	// Positions are the 1-D coordinates for "line".
	Positions []float64 `json:"positions,omitempty"`
	// Points are explicit coordinates for "points".
	Points [][]float64 `json:"points,omitempty"`
}

// isZero reports whether no metric field is set (empty slices count as
// unset, so a decoded `"positions": []` behaves like an absent field).
func (m MetricSpec) isZero() bool {
	return m.Family == "" && m.N == 0 && m.Dim == 0 && m.Clusters == 0 &&
		m.Radius == 0 && m.Rows == 0 && m.Cols == 0 && m.Spacing == 0 &&
		len(m.Positions) == 0 && len(m.Points) == 0
}

// Sizeable reports whether the family accepts an N override (the sweep
// n-axis); families with explicit coordinates or grid shape do not.
func (m MetricSpec) Sizeable() bool {
	switch m.Family {
	case "uniform", "unit", "clustered", "exp-line", "ring":
		return true
	}
	return false
}

// PeerCount returns the number of peers the built space will have.
func (m MetricSpec) PeerCount() int {
	switch m.Family {
	case "line":
		return len(m.Positions)
	case "points":
		return len(m.Points)
	case "grid":
		return m.Rows * m.Cols
	default:
		return m.N
	}
}

// Build constructs the metric space. r feeds the random families;
// alpha parameterizes the "exp-line" geometry (the Figure 1 family).
func (m MetricSpec) Build(r *rng.RNG, alpha float64) (metric.Space, error) {
	switch m.Family {
	case "uniform":
		dim := m.Dim
		if dim == 0 {
			dim = 2
		}
		return metric.UniformPoints(r, m.N, dim)
	case "unit":
		// The implicit O(1) uniform space: classification-identical to the
		// dense metric.Uniform matrix (same kernel dispatch, bit-identical
		// evaluations) but without the n² distance slab, so "unit" scales
		// to internet-size n.
		return metric.UniformImplicit(m.N)
	case "clustered":
		k := m.Clusters
		if k == 0 {
			k = 3
		}
		radius := m.Radius
		if radius == 0 {
			radius = 0.02
		}
		return metric.ClusteredRandom(r, m.N, k, radius)
	case "line":
		return metric.Line(m.Positions)
	case "exp-line":
		return metric.ExponentialLine(m.N, alpha)
	case "ring":
		radius := m.Radius
		if radius == 0 {
			radius = 1
		}
		return metric.Ring(m.N, radius)
	case "grid":
		spacing := m.Spacing
		if spacing == 0 {
			spacing = 1
		}
		return metric.Grid(m.Rows, m.Cols, spacing)
	case "points":
		return metric.NewPoints(m.Points)
	case "":
		return nil, fmt.Errorf("scenario: metric family missing")
	default:
		return nil, fmt.Errorf("scenario: unknown metric family %q", m.Family)
	}
}

// GameSpec describes the game options layered on the metric space.
type GameSpec struct {
	// Alpha is the link-maintenance price α ≥ 0.
	Alpha float64 `json:"alpha"`
	// Model is the cost model name: "stretch" (default) or "distance".
	Model string `json:"model,omitempty"`
	// Undirected makes links traversable both ways (Fabrikant
	// semantics); the paper's game is directed.
	Undirected bool `json:"undirected,omitempty"`
	// Gamma enables congestion-aware link costs (γ > 0); 0 is the
	// paper's model.
	Gamma float64 `json:"gamma,omitempty"`
}

// Options translates the spec into core instance options.
func (g GameSpec) Options() ([]core.Option, error) {
	var opts []core.Option
	if g.Model != "" {
		m, err := core.ModelByName(g.Model)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.WithModel(m))
	}
	if g.Undirected {
		opts = append(opts, core.WithUndirected())
	}
	if g.Gamma != 0 {
		opts = append(opts, core.WithCongestion(g.Gamma))
	}
	return opts, nil
}

// Instance builds the game: metric space plus options.
func (s Spec) Instance(r *rng.RNG) (*core.Instance, error) {
	space, err := s.Metric.Build(r, s.Game.Alpha)
	if err != nil {
		return nil, err
	}
	opts, err := s.Game.Options()
	if err != nil {
		return nil, err
	}
	return core.NewInstance(space, s.Game.Alpha, opts...)
}

// StartSpec describes the starting profile of a dynamics run.
type StartSpec struct {
	// Kind is one of "empty" (default), "random", "chain", "star",
	// "full-mesh", "links".
	Kind string `json:"kind,omitempty"`
	// Q is the link probability for "random" (default 0.3).
	Q float64 `json:"q,omitempty"`
	// Center is the hub peer for "star".
	Center int `json:"center,omitempty"`
	// Links are explicit directed links for "links".
	Links [][2]int `json:"links,omitempty"`
}

// isZero reports whether no start field is set (empty Links count as
// unset).
func (s StartSpec) isZero() bool {
	return s.Kind == "" && s.Q == 0 && s.Center == 0 && len(s.Links) == 0
}

// Build constructs the start profile on n peers; r feeds "random".
func (s StartSpec) Build(n int, r *rng.RNG) (core.Profile, error) {
	switch s.Kind {
	case "", "empty":
		return core.NewProfile(n), nil
	case "random":
		q := s.Q
		if q == 0 {
			q = 0.3
		}
		return dynamics.RandomProfile(r, n, q), nil
	case "chain":
		return opt.Chain(n), nil
	case "star":
		return opt.Star(n, s.Center)
	case "full-mesh":
		return opt.FullMesh(n), nil
	case "links":
		p := core.NewProfile(n)
		for _, l := range s.Links {
			if err := p.AddLink(l[0], l[1]); err != nil {
				return core.Profile{}, err
			}
		}
		return p, nil
	default:
		return core.Profile{}, fmt.Errorf("scenario: unknown start kind %q", s.Kind)
	}
}

// ChurnSpec describes the churn phase layered on a dynamics run: the
// chosen final profile is fed to churn.RunContext as the starting
// overlay.
type ChurnSpec struct {
	// Rate is each peer's toggle rate (events/second, exponential
	// inter-arrival; the aggregate event rate is rate·n). Zero with
	// other fields set runs only the rate→0 tail.
	Rate float64 `json:"rate,omitempty"`
	// Duration is the simulated churn horizon in seconds (default 5).
	Duration float64 `json:"duration,omitempty"`
	// Repair is the repair strategy: "selfish" (default), "nearest" or
	// "none".
	Repair string `json:"repair,omitempty"`
	// MinOnline floors the online population (0 = engine default,
	// max(2, n/4)).
	MinOnline int `json:"min_online,omitempty"`
	// RepairSteps bounds best-response moves per post-event
	// restabilization pass (0 = engine default).
	RepairSteps int `json:"repair_steps,omitempty"`
	// TailSteps bounds the rate→0 tail stabilization (0 = engine
	// default).
	TailSteps int `json:"tail_steps,omitempty"`
}

// isZero reports whether no churn field is set — no churn phase runs.
func (c ChurnSpec) isZero() bool { return c == (ChurnSpec{}) }

// EstimateSpec configures the sampled estimators read by the est-*
// measures. Sampling is seeded by the spec seed, so estimates are as
// reproducible as everything else in the run.
type EstimateSpec struct {
	// Samples is the number of source peers sampled (without
	// replacement) for the est-social estimate (0 = default 32; clamped
	// to n, at which point the estimate is exact with CI 0).
	Samples int `json:"samples,omitempty"`
	// Landmarks is the number of landmark sources for the est-stretch
	// mean-term estimate (0 = default 16; clamped to n).
	Landmarks int `json:"landmarks,omitempty"`
}

// isZero reports whether no estimate field is set — the est-* measures
// are then unavailable.
func (e EstimateSpec) isZero() bool { return e == (EstimateSpec{}) }

// DynamicsSpec describes the best-response dynamics to run.
type DynamicsSpec struct {
	// Policy is the activation policy: "round-robin" (default),
	// "first-improving", "max-gain", "random".
	Policy string `json:"policy,omitempty"`
	// Oracle is the deviation oracle: "exact" (default),
	// "local-search", "greedy".
	Oracle string `json:"oracle,omitempty"`
	// MaxSteps bounds applied moves per run (default 5000).
	MaxSteps int `json:"max_steps,omitempty"`
	// Tol is the improvement threshold (default bestresponse.Tolerance).
	Tol float64 `json:"tol,omitempty"`
	// DetectCycles enables state hashing and repeat verification.
	DetectCycles bool `json:"detect_cycles,omitempty"`
	// Runs is the number of independent replicas. 1 (default) runs once
	// from Start; larger values run from random profiles of density
	// LinkProb and the profile measures report the worst converged
	// equilibrium, the Price-of-Anarchy convention.
	Runs int `json:"runs,omitempty"`
	// LinkProb is the replica start density (default 0.3).
	LinkProb float64 `json:"link_prob,omitempty"`
	// Engine selects the dynamics evaluation engine: "" or "auto"
	// (incremental at n ≥ dynamics.IncrementalMinPeers, fresh below),
	// "fresh" (force from-scratch recomputation each step), or
	// "incremental" (force the persistent-cache engine). Both engines
	// produce byte-identical trajectories; the choice only affects
	// wall-clock.
	Engine string `json:"engine,omitempty"`
	// BatchWorkers is the intra-step parallelism of deviation-batch
	// construction (dynamics.Config.BatchWorkers): 0 selects all cores
	// at n ≥ dynamics.BatchParallelMinPeers and sequential below, 1
	// forces sequential, larger values pin the width. Byte-identical
	// results at any value.
	BatchWorkers int `json:"batch_workers,omitempty"`
}

// engineFlags maps a DynamicsSpec engine name onto the dynamics Config
// switches.
func engineFlags(name string) (forceFresh, forceIncremental bool, err error) {
	switch name {
	case "", "auto":
		return false, false, nil
	case "fresh":
		return true, false, nil
	case "incremental":
		return false, true, nil
	default:
		return false, false, fmt.Errorf("scenario: unknown dynamics engine %q (want auto, fresh or incremental)", name)
	}
}

// PolicyByName returns the activation policy for a DynamicsSpec name.
func PolicyByName(name string) (dynamics.Policy, error) {
	switch name {
	case "", "round-robin":
		return &dynamics.RoundRobin{}, nil
	case "first-improving":
		return dynamics.FirstImproving{}, nil
	case "max-gain":
		return dynamics.MaxGain{}, nil
	case "random":
		return dynamics.RandomImproving{}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown policy %q", name)
	}
}

// OracleByName returns the deviation oracle for a DynamicsSpec name.
func OracleByName(name string) (bestresponse.Oracle, error) {
	switch name {
	case "", "exact":
		return &bestresponse.Exact{}, nil
	case "local-search":
		return &bestresponse.LocalSearch{}, nil
	case "greedy":
		return &bestresponse.Greedy{}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown oracle %q", name)
	}
}

// validFamilies lists the metric families MetricSpec.Build accepts.
var validFamilies = map[string]bool{
	"uniform": true, "unit": true, "clustered": true, "line": true,
	"exp-line": true, "ring": true, "grid": true, "points": true,
}

// validStartKinds lists the start kinds StartSpec.Build accepts.
var validStartKinds = map[string]bool{
	"": true, "empty": true, "random": true, "chain": true,
	"star": true, "full-mesh": true, "links": true,
}

// Validate checks the spec for structural errors (unknown names,
// missing required fields) without running anything.
func (s Spec) Validate() error {
	if s.Experiment != "" {
		// A native runner produces its own bespoke table; every
		// declarative field would be silently ignored, so reject them
		// all (only Name/Description/Seed/Quick compose with Experiment).
		if !s.Metric.isZero() || s.Game != (GameSpec{}) || !s.Start.isZero() ||
			s.Dynamics != (DynamicsSpec{}) || !s.Churn.isZero() || !s.Estimate.isZero() || len(s.Measures) > 0 {
			return fmt.Errorf("scenario: spec %q sets declarative fields alongside experiment %q; they would be ignored",
				s.Name, s.Experiment)
		}
		return nil
	}
	if s.Metric.Family == "" {
		return fmt.Errorf("scenario: spec %q needs a metric family (or an experiment id)", s.Name)
	}
	if !validFamilies[s.Metric.Family] {
		return fmt.Errorf("scenario: unknown metric family %q", s.Metric.Family)
	}
	if s.Metric.PeerCount() < 2 {
		return fmt.Errorf("scenario: spec %q needs ≥ 2 peers, metric %q gives %d",
			s.Name, s.Metric.Family, s.Metric.PeerCount())
	}
	if s.Game.Alpha < 0 {
		return fmt.Errorf("scenario: spec %q has negative alpha %v", s.Name, s.Game.Alpha)
	}
	if _, err := s.Game.Options(); err != nil {
		return err
	}
	if s.Dynamics.BatchWorkers < 0 {
		return fmt.Errorf("scenario: spec %q has negative dynamics.batch_workers %d", s.Name, s.Dynamics.BatchWorkers)
	}
	if _, err := PolicyByName(s.Dynamics.Policy); err != nil {
		return err
	}
	if _, err := OracleByName(s.Dynamics.Oracle); err != nil {
		return err
	}
	if _, _, err := engineFlags(s.Dynamics.Engine); err != nil {
		return err
	}
	if !validStartKinds[s.Start.Kind] {
		return fmt.Errorf("scenario: unknown start kind %q", s.Start.Kind)
	}
	if s.Dynamics.Runs > 1 && !s.Start.isZero() {
		// Replica mode draws every start from RandomProfile(link_prob);
		// a hand-written start would be silently ignored.
		return fmt.Errorf("scenario: spec %q sets start alongside dynamics.runs = %d; replicas always start from random profiles (use link_prob)",
			s.Name, s.Dynamics.Runs)
	}
	if s.Dynamics.Runs <= 1 && s.Dynamics.LinkProb != 0 {
		// The mirror case: a single run starts from Start, so link_prob
		// would be silently ignored.
		return fmt.Errorf("scenario: spec %q sets dynamics.link_prob without dynamics.runs > 1; single runs start from the start spec",
			s.Name)
	}
	if !s.Churn.isZero() {
		if s.Churn.Rate < 0 {
			return fmt.Errorf("scenario: spec %q has negative churn rate %v", s.Name, s.Churn.Rate)
		}
		if s.Churn.Duration < 0 {
			return fmt.Errorf("scenario: spec %q has negative churn duration %v", s.Name, s.Churn.Duration)
		}
		if s.Churn.MinOnline < 0 || s.Churn.RepairSteps < 0 || s.Churn.TailSteps < 0 {
			return fmt.Errorf("scenario: spec %q has negative churn bounds", s.Name)
		}
		if s.Churn.Repair != "" {
			if _, err := churn.ParseRepairKind(s.Churn.Repair); err != nil {
				return err
			}
		}
	}
	if s.Estimate.Samples < 0 || s.Estimate.Landmarks < 0 {
		return fmt.Errorf("scenario: spec %q has negative estimate sample counts", s.Name)
	}
	for _, m := range s.Measures {
		if !KnownMeasure(m) {
			return fmt.Errorf("scenario: spec %q has unknown measure %q (have %v)", s.Name, m, MeasureNames())
		}
		if churnMeasure(m) && s.Churn.isZero() {
			return fmt.Errorf("scenario: spec %q requests measure %q without a churn block", s.Name, m)
		}
		if estimateMeasure(m) && s.Estimate.isZero() {
			return fmt.Errorf("scenario: spec %q requests measure %q without an estimate block", s.Name, m)
		}
	}
	return nil
}

// ReadSpec decodes a Spec from JSON, rejecting unknown fields.
func ReadSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// WriteJSON encodes the spec with indentation.
func (s Spec) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
