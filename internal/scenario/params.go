// Package scenario is the declarative experiment layer: a Spec is a
// serializable (JSON) description of one full workload — metric family
// and size, game options (α, cost model, directedness, congestion γ),
// starting profile, best-response dynamics configuration and the
// measures to record — and a Sweep is a grid of Specs over axes
// (α, n, seed, γ, churn rate, repair strategy, estimator samples)
// executed concurrently with deterministic, order-stable tables.
//
// The package also hosts the experiment catalog: the 13 paper runners
// of package experiments register here as named Specs when it is
// imported (Spec.Experiment routes to those native Go runners), so
// `Run`/`RunAll` drive both the paper reproduction tables and
// user-authored workloads through one engine.
package scenario

// DefaultSeed is the seed used whenever a caller leaves the seed at its
// zero value. Every layer (Params, Spec, the topogame CLI) shares this
// single fallback so "unset" means the same reproducible stream
// everywhere.
const DefaultSeed uint64 = 1

// EffectiveSeed maps the zero value to DefaultSeed.
func EffectiveSeed(seed uint64) uint64 {
	if seed == 0 {
		return DefaultSeed
	}
	return seed
}

// Params tunes execution scale for catalog runs. The zero value means
// "paper defaults"; Quick trims sizes for smoke tests and benchmarks.
type Params struct {
	// Seed drives all randomness (0 selects DefaultSeed).
	Seed uint64
	// Quick reduces instance sizes and run counts (~10× faster), for
	// benchmarks and CI smoke tests.
	Quick bool
	// Parallelism is the worker budget a runner may use for its own
	// internal fan-outs (replica runs, pooled evaluations); it never
	// changes results, only wall-clock. 0 means all cores. RunAll
	// divides its budget across concurrent runners so nested fan-outs
	// do not oversubscribe the CPU.
	Parallelism int
}

// EffectiveSeed returns the seed with the zero value mapped to
// DefaultSeed.
func (p Params) EffectiveSeed() uint64 { return EffectiveSeed(p.Seed) }
