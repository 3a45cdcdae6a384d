package scenario

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"selfishnet/internal/bestresponse"
)

// Normalize returns the spec with every engine default made explicit —
// the single canonical form shared by the execution engine
// (runDeclarative), the CLI (`topogame spec -emit`) and the serve
// layer's content-addressed result cache. Two specs that normalize to
// the same value are executed identically, so a cache keyed by the
// normalized encoding (see Hash) can serve one's result for the other.
//
// Normalization is semantics-preserving and idempotent:
//
//   - Seed 0 becomes DefaultSeed (EffectiveSeed).
//   - Experiment specs normalize the seed only; the declarative fields
//     are required to be empty (Validate) and stay untouched.
//   - Declarative defaults are filled in: metric family parameters
//     (dim, clusters, radius, spacing), game model ("stretch"), start
//     kind ("empty", and q for "random"), dynamics policy
//     ("round-robin"), oracle ("exact"), step budget (5000),
//     improvement tolerance (bestresponse.Tolerance), runs (1),
//     link_prob (0.3, replica mode only) and the measure list
//     (DefaultMeasures).
//   - A non-zero churn block gets its defaults (repair "selfish",
//     duration 5); a zero block stays zero.
//   - A non-zero estimate block gets its defaults (samples 32,
//     landmarks 16); a zero block stays zero.
//   - Quick trims are folded in (runs ≤ 2, max_steps ≤ 1500, churn
//     duration ≤ 1), so a quick spec hashes equal to the spec it
//     actually executes as.
//   - The auto-dispatch spelling "auto" for dynamics.engine collapses
//     to "" (the documented automatic default), so pinning "auto"
//     explicitly hashes like not pinning.
//
// Fields a family or kind ignores (e.g. start.q under kind "star") are
// left as written: normalization fills defaults, it does not prove
// semantic equivalence. The cache is therefore sound (equal hash ⇒
// equal result) but not complete (unequal hash ⇏ unequal result).
//
// Normalize is total: it never errors, and on an invalid spec it simply
// returns a spec that fails Validate the same way.
func (s Spec) Normalize() Spec {
	out := s
	out.Seed = EffectiveSeed(s.Seed)
	if s.Experiment != "" {
		return out
	}

	// Metric: make the Build-time family parameter defaults explicit.
	switch out.Metric.Family {
	case "uniform":
		if out.Metric.Dim == 0 {
			out.Metric.Dim = 2
		}
	case "clustered":
		if out.Metric.Clusters == 0 {
			out.Metric.Clusters = 3
		}
		if out.Metric.Radius == 0 {
			out.Metric.Radius = 0.02
		}
	case "ring":
		if out.Metric.Radius == 0 {
			out.Metric.Radius = 1
		}
	case "grid":
		if out.Metric.Spacing == 0 {
			out.Metric.Spacing = 1
		}
	}

	// Game: explicit cost model.
	if out.Game.Model == "" {
		out.Game.Model = "stretch"
	}

	// Dynamics: the runDeclarative defaults, with quick trims folded in.
	if out.Dynamics.Policy == "" {
		out.Dynamics.Policy = "round-robin"
	}
	if out.Dynamics.Oracle == "" {
		out.Dynamics.Oracle = "exact"
	}
	if out.Dynamics.Engine == "auto" {
		out.Dynamics.Engine = ""
	}
	if out.Dynamics.Runs <= 0 {
		out.Dynamics.Runs = 1
	}
	if out.Dynamics.MaxSteps <= 0 {
		out.Dynamics.MaxSteps = 5000
	}
	if out.Quick {
		if out.Dynamics.Runs > 2 {
			out.Dynamics.Runs = 2
		}
		if out.Dynamics.MaxSteps > 1500 {
			out.Dynamics.MaxSteps = 1500
		}
	}
	if out.Dynamics.Tol <= 0 {
		out.Dynamics.Tol = bestresponse.Tolerance
	}
	if out.Dynamics.Runs > 1 && out.Dynamics.LinkProb == 0 {
		out.Dynamics.LinkProb = 0.3
	}

	// Start: explicit kind, and the random-density default where the
	// kind actually reads it. Replica mode (runs > 1) ignores Start
	// entirely and Validate rejects a non-zero one there, so the
	// defaults only apply to single runs.
	if out.Dynamics.Runs <= 1 {
		if out.Start.Kind == "" {
			out.Start.Kind = "empty"
		}
		if out.Start.Kind == "random" && out.Start.Q == 0 {
			out.Start.Q = 0.3
		}
	}

	// Churn: explicit repair strategy and horizon, with the quick trim
	// folded in. A zero block stays zero (no churn phase), so existing
	// specs hash unchanged.
	if !out.Churn.isZero() {
		if out.Churn.Repair == "" {
			out.Churn.Repair = "selfish"
		}
		if out.Churn.Duration == 0 {
			out.Churn.Duration = 5
		}
		if out.Quick && out.Churn.Duration > 1 {
			out.Churn.Duration = 1
		}
	}

	// Estimate: explicit sample counts. A zero block stays zero (no
	// estimator phase), so existing specs hash unchanged.
	if !out.Estimate.isZero() {
		if out.Estimate.Samples == 0 {
			out.Estimate.Samples = 32
		}
		if out.Estimate.Landmarks == 0 {
			out.Estimate.Landmarks = 16
		}
	}

	if len(out.Measures) == 0 {
		out.Measures = append([]string(nil), DefaultMeasures...)
	}
	return out
}

// ExperimentCost is the CostEstimate assigned to native experiment
// specs: their runners choose their own replica counts and step
// budgets, so the serve layer treats them as uniformly expensive for
// admission purposes (comparable to a large declarative run).
const ExperimentCost int64 = 4 << 20

// CostEstimate is a cheap admission-control proxy for how much work
// the spec is: peers × replicas × step budget of the normalized spec
// (so quick-mode trims are reflected), or ExperimentCost for native
// experiment specs. It is deliberately crude — a watermark for load
// shedding, not a scheduler — and never affects results.
func (s Spec) CostEstimate() int64 {
	n := s.Normalize()
	if n.Experiment != "" {
		return ExperimentCost
	}
	runs := n.Dynamics.Runs
	if runs < 1 {
		runs = 1
	}
	return int64(n.Metric.PeerCount()) * int64(runs) * int64(n.Dynamics.MaxSteps)
}

// CanonicalJSON returns the compact JSON encoding of the normalized
// spec — the content-addressing key material used by Hash.
func (s Spec) CanonicalJSON() ([]byte, error) {
	b, err := json.Marshal(s.Normalize())
	if err != nil {
		return nil, fmt.Errorf("scenario: canonical spec encoding: %w", err)
	}
	return b, nil
}

// Hash returns the content address of the spec: "sha256:" plus the hex
// SHA-256 of CanonicalJSON. Specs with equal hashes execute
// identically (the engine is deterministic given the normalized spec),
// so the hash is a sound cache key for rendered results.
func (s Spec) Hash() (string, error) {
	b, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("sha256:%x", sum), nil
}

// Normalize returns the sweep with its base spec normalized (see
// Spec.Normalize). Axis slices are kept exactly as written — their
// order determines grid order and therefore row order, so sorting or
// deduplicating them would change the result table.
func (sw Sweep) Normalize() Sweep {
	out := sw
	out.Base = sw.Base.Normalize()
	return out
}

// CanonicalJSON returns the compact JSON encoding of the normalized
// sweep.
func (sw Sweep) CanonicalJSON() ([]byte, error) {
	b, err := json.Marshal(sw.Normalize())
	if err != nil {
		return nil, fmt.Errorf("scenario: canonical sweep encoding: %w", err)
	}
	return b, nil
}

// Hash returns the content address of the sweep ("sha256:" + hex), the
// dedup key the serve layer uses for async sweep jobs.
func (sw Sweep) Hash() (string, error) {
	b, err := sw.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("sha256:%x", sum), nil
}
