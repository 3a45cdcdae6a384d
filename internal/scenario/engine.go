package scenario

import (
	"context"
	"fmt"
	"strconv"

	"selfishnet/internal/analysis"
	"selfishnet/internal/churn"
	"selfishnet/internal/core"
	"selfishnet/internal/dynamics"
	"selfishnet/internal/export"
	"selfishnet/internal/nash"
	"selfishnet/internal/opt"
	"selfishnet/internal/rng"
)

// nonEquilibriumNote warns that a single dynamics run hit its step
// budget: the profile measures then describe the final (cut-off)
// profile, not an equilibrium.
const nonEquilibriumNote = "single run did not converge: profile measures report the final (non-equilibrium) profile"

// DefaultMeasures are the columns recorded when a spec lists none.
var DefaultMeasures = []string{
	"converged", "mean-steps", "links", "social-cost", "max-stretch", "c-over-lb",
}

// measureNames lists every measure the engine can record, in canonical
// order. Run measures summarize the dynamics replicas; profile measures
// evaluate the selected final profile (the worst converged equilibrium
// for multi-replica runs, the Price-of-Anarchy convention).
var measureNames = []string{
	"runs", "converged", "cycles", "mean-steps",
	"social-cost", "link-cost", "stretch-cost", "c-over-lb",
	"links", "max-stretch", "mean-stretch",
	"nash", "max-indegree", "degree-gini",
	"churn-rate", "churn-repair", "churn-events",
	"restabilize-mean", "restabilize-max", "overshoot", "tail-stable",
	"est-social", "est-social-ci", "est-stretch", "est-stretch-ci", "est-samples",
}

// churnMeasure reports whether the measure reads the churn phase and
// therefore requires a churn block in the spec.
func churnMeasure(name string) bool {
	switch name {
	case "churn-rate", "churn-repair", "churn-events",
		"restabilize-mean", "restabilize-max", "overshoot", "tail-stable":
		return true
	}
	return false
}

// estimateMeasure reports whether the measure reads the sampled
// estimators and therefore requires an estimate block in the spec.
func estimateMeasure(name string) bool {
	switch name {
	case "est-social", "est-social-ci", "est-stretch", "est-stretch-ci", "est-samples":
		return true
	}
	return false
}

// MeasureNames returns the known measure names in canonical order.
func MeasureNames() []string {
	return append([]string(nil), measureNames...)
}

// KnownMeasure reports whether name is a measure the engine records.
func KnownMeasure(name string) bool {
	for _, m := range measureNames {
		if m == name {
			return true
		}
	}
	return false
}

// outcome is the engine's view of one executed declarative spec, with
// lazy caches so each expensive quantity is computed at most once no
// matter how many measures reference it.
type outcome struct {
	// ctx carries the request's cancellation into the lazily executed
	// phases (the churn run fires at measure-render time, after
	// runDeclarative returned). Always non-nil; Background when the
	// caller has no deadline.
	ctx     context.Context
	spec    Spec
	seed    uint64
	inst    *core.Instance
	ev      *core.Evaluator
	results []dynamics.Result
	// chosen is the profile the profile-valued measures evaluate: the
	// single run's final for Runs ≤ 1, else the worst converged
	// equilibrium in replica order. chosenOK is false when no replica
	// converged in multi-replica mode. nonEquilibrium flags a single
	// run that did not converge, so tables can warn that the profile
	// measures describe a cut-off state rather than an equilibrium.
	chosen         core.Profile
	chosenOK       bool
	nonEquilibrium bool

	social *core.Cost
	stats  *analysis.TopologyStats

	// estSocial/estStretch cache the sampled estimators (one run each no
	// matter how many est-* measures read them), seeded by the spec seed.
	estSocial  *core.Estimate
	estStretch *core.Estimate

	// churnWorkers sizes the churn run's evaluator pool (wall-clock
	// only); churnRes/churnErr cache the single churn.RunContext
	// execution.
	churnWorkers int
	churnRes     *churn.Result
	churnErr     error
}

func (o *outcome) socialCost() core.Cost {
	if o.social == nil {
		c := o.ev.SocialCost(o.chosen)
		o.social = &c
	}
	return *o.social
}

// churnResult lazily executes the spec's churn phase on the chosen
// profile: one churn run per outcome no matter how many churn measures
// read it, seeded by the spec seed (deterministic at any pool width).
func (o *outcome) churnResult() (churn.Result, error) {
	if o.churnRes == nil && o.churnErr == nil {
		kind := churn.RepairSelfish
		if o.spec.Churn.Repair != "" {
			var err error
			if kind, err = churn.ParseRepairKind(o.spec.Churn.Repair); err != nil {
				o.churnErr = err
				return churn.Result{}, err
			}
		}
		res, err := churn.RunContext(o.ctx, churn.Config{
			Instance:    o.inst,
			Start:       o.chosen,
			Rate:        o.spec.Churn.Rate,
			Duration:    o.spec.Churn.Duration,
			Repair:      kind,
			MinOnline:   o.spec.Churn.MinOnline,
			RepairSteps: o.spec.Churn.RepairSteps,
			TailSteps:   o.spec.Churn.TailSteps,
			Seed:        o.seed,
			Workers:     o.churnWorkers,
		})
		if err != nil {
			o.churnErr = err
			return churn.Result{}, err
		}
		o.churnRes = &res
	}
	if o.churnErr != nil {
		return churn.Result{}, o.churnErr
	}
	return *o.churnRes, nil
}

// estSocialResult lazily computes the sampled social-cost estimate on
// the chosen profile with the spec's sample budget and seed.
func (o *outcome) estSocialResult() (core.Estimate, error) {
	if o.estSocial == nil {
		est, err := o.ev.EstimateSocialCost(o.chosen, o.spec.Estimate.Samples, o.seed)
		if err != nil {
			return core.Estimate{}, err
		}
		o.estSocial = &est
	}
	return *o.estSocial, nil
}

// estStretchResult lazily computes the landmark mean-term estimate on
// the chosen profile. The landmark seed is offset from the spec seed so
// the two estimators never share a source sample by construction.
func (o *outcome) estStretchResult() (core.Estimate, error) {
	if o.estStretch == nil {
		est, err := o.ev.EstimateMeanTerm(o.chosen, o.spec.Estimate.Landmarks, o.seed+1)
		if err != nil {
			return core.Estimate{}, err
		}
		o.estStretch = &est
	}
	return *o.estStretch, nil
}

func (o *outcome) topoStats() (analysis.TopologyStats, error) {
	if o.stats == nil {
		st, err := analysis.Analyze(o.ev, o.chosen)
		if err != nil {
			return analysis.TopologyStats{}, err
		}
		o.stats = &st
	}
	return *o.stats, nil
}

// runDeclarative executes a validated declarative spec. parallelism is
// the internal replica fan-out width (0 = all cores); it never changes
// the outcome, only wall-clock.
//
// The spec is normalized first (Spec.Normalize), so defaulting lives in
// exactly one place and a spec executes identically to its canonical
// form — the invariant the serve layer's content-addressed cache rests
// on.
func runDeclarative(ctx context.Context, spec Spec, parallelism int) (*outcome, error) {
	spec = spec.Normalize()
	seed := spec.Seed
	r := rng.New(seed)
	inst, err := spec.Instance(r)
	if err != nil {
		return nil, err
	}
	ev := core.NewEvaluator(inst)

	runs := spec.Dynamics.Runs
	maxSteps := spec.Dynamics.MaxSteps
	policy, err := PolicyByName(spec.Dynamics.Policy)
	if err != nil {
		return nil, err
	}
	oracle, err := OracleByName(spec.Dynamics.Oracle)
	if err != nil {
		return nil, err
	}
	forceFresh, forceIncremental, err := engineFlags(spec.Dynamics.Engine)
	if err != nil {
		return nil, err
	}
	batchWorkers := spec.Dynamics.BatchWorkers
	if batchWorkers == 0 && parallelism > 0 {
		// The engine splits the core budget between concurrent grid
		// points / experiment ids and their internals (splitBudget); an
		// auto batch pool must stay inside this run's share instead of
		// claiming all cores on top of the point-level fan-out. With an
		// unconstrained budget (parallelism ≤ 0) auto stays auto.
		batchWorkers = parallelism
	}
	cfg := dynamics.Config{
		Oracle:           oracle,
		Policy:           policy,
		Tol:              spec.Dynamics.Tol,
		MaxSteps:         maxSteps,
		DetectCycles:     spec.Dynamics.DetectCycles,
		Parallelism:      parallelism,
		BatchWorkers:     batchWorkers,
		ForceFresh:       forceFresh,
		ForceIncremental: forceIncremental,
	}

	out := &outcome{ctx: ctx, spec: spec, seed: seed, inst: inst, ev: ev, churnWorkers: parallelism}
	if runs == 1 {
		start, err := spec.Start.Build(inst.N(), r)
		if err != nil {
			return nil, err
		}
		cfg.Rand = r.Split()
		res, err := dynamics.RunContext(ctx, ev, start, cfg)
		if err != nil {
			return nil, err
		}
		out.results = []dynamics.Result{res}
		out.chosen = res.Final
		out.chosenOK = true
		out.nonEquilibrium = !res.Converged
		return out, nil
	}

	// Replica mode: Start is ignored; runs start from random profiles of
	// density LinkProb (made explicit by Normalize), exactly like
	// dynamics.Converge (bit-identical at every parallelism width).
	results, err := dynamics.ReplicasContext(ctx, ev, cfg, runs, spec.Dynamics.LinkProb, r)
	if err != nil {
		return nil, err
	}
	out.results = results
	if worst, cost, _, ok := dynamics.WorstConverged(ev, results); ok {
		out.chosen = worst
		out.chosenOK = true
		out.social = &cost // cache: the cost measures reuse it
	}
	return out, nil
}

// measureCell renders one measure of an executed spec as a table cell.
// Profile measures render "-" when no replica converged.
func (o *outcome) measureCell(name string) (string, error) {
	switch name {
	case "runs":
		return export.Int(len(o.results)), nil
	case "converged":
		n := 0
		for _, res := range o.results {
			if res.Converged {
				n++
			}
		}
		return export.Int(n), nil
	case "cycles":
		n := 0
		for _, res := range o.results {
			if res.CycleDetected {
				n++
			}
		}
		return export.Int(n), nil
	case "mean-steps":
		sum, n := 0, 0
		for _, res := range o.results {
			if res.Converged {
				sum += res.Steps
				n++
			}
		}
		if n == 0 {
			return "-", nil
		}
		return export.Num(float64(sum) / float64(n)), nil
	}
	// Everything below evaluates the chosen profile.
	if !o.chosenOK {
		return "-", nil
	}
	switch name {
	case "social-cost":
		return export.Num(o.socialCost().Total()), nil
	case "link-cost":
		return export.Num(o.socialCost().Link), nil
	case "stretch-cost":
		return export.Num(o.socialCost().Term), nil
	case "c-over-lb":
		return export.Num(o.socialCost().Total() / opt.LowerBound(o.inst)), nil
	case "links":
		return export.Int(o.chosen.LinkCount()), nil
	case "max-stretch":
		return export.Num(o.ev.MaxTerm(o.chosen)), nil
	case "mean-stretch":
		st, err := o.topoStats()
		if err != nil {
			return "", err
		}
		return export.Num(st.Stretch.Mean), nil
	case "nash":
		ok, err := nash.IsNash(o.ev, o.chosen)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%v", ok), nil
	case "max-indegree":
		st, err := o.topoStats()
		if err != nil {
			return "", err
		}
		return export.Num(st.InDegree.Max), nil
	case "degree-gini":
		st, err := o.topoStats()
		if err != nil {
			return "", err
		}
		return export.Num(st.DegreeGini), nil
	case "churn-rate":
		// Echo measures make sweep rows self-describing when the grid
		// spans churn rates or repair strategies.
		return export.Num(o.spec.Churn.Rate), nil
	case "churn-repair":
		if o.spec.Churn.Repair == "" {
			return churn.RepairSelfish.String(), nil
		}
		return o.spec.Churn.Repair, nil
	case "churn-events":
		cr, err := o.churnResult()
		if err != nil {
			return "", err
		}
		return export.Int(cr.Events), nil
	case "restabilize-mean":
		cr, err := o.churnResult()
		if err != nil {
			return "", err
		}
		if cr.Restabilize.N() == 0 {
			return "-", nil
		}
		return export.Num(cr.Restabilize.Mean()), nil
	case "restabilize-max":
		cr, err := o.churnResult()
		if err != nil {
			return "", err
		}
		if cr.Restabilize.N() == 0 {
			return "-", nil
		}
		return export.Num(cr.Restabilize.Max()), nil
	case "overshoot":
		cr, err := o.churnResult()
		if err != nil {
			return "", err
		}
		if cr.Overshoot.N() == 0 {
			return "-", nil
		}
		return export.Num(cr.Overshoot.Mean()), nil
	case "tail-stable":
		cr, err := o.churnResult()
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%v", cr.TailStable), nil
	case "est-social":
		est, err := o.estSocialResult()
		if err != nil {
			return "", err
		}
		return export.Num(est.Value), nil
	case "est-social-ci":
		est, err := o.estSocialResult()
		if err != nil {
			return "", err
		}
		return export.Num(est.CI), nil
	case "est-stretch":
		est, err := o.estStretchResult()
		if err != nil {
			return "", err
		}
		return export.Num(est.Value), nil
	case "est-stretch-ci":
		est, err := o.estStretchResult()
		if err != nil {
			return "", err
		}
		return export.Num(est.CI), nil
	case "est-samples":
		est, err := o.estSocialResult()
		if err != nil {
			return "", err
		}
		return export.Int(est.Samples), nil
	default:
		return "", fmt.Errorf("scenario: unknown measure %q", name)
	}
}

// effectiveMeasures returns the spec's measure list or the default.
func effectiveMeasures(spec Spec) []string {
	if len(spec.Measures) > 0 {
		return spec.Measures
	}
	return DefaultMeasures
}

// specHeaders are the identity columns prepended to every declarative
// table: they make each row self-describing, and sweeps grid over them.
func specHeaders(measures []string) []string {
	return append([]string{"n", "alpha", "gamma", "seed"}, measures...)
}

// row renders the outcome as one table row under specHeaders.
func (o *outcome) row(measures []string) ([]string, error) {
	cells := []string{
		export.Int(o.inst.N()),
		export.Num(o.spec.Game.Alpha),
		export.Num(o.spec.Game.Gamma),
		strconv.FormatUint(o.seed, 10),
	}
	for _, m := range measures {
		cell, err := o.measureCell(m)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// RunSpec executes a spec and renders its table: a native experiment
// spec routes to the registered runner, a declarative spec runs through
// the generic engine and produces a one-row table. Params.Seed (when
// non-zero) and Params.Quick override the spec's own fields;
// Params.Parallelism is the internal fan-out width and never changes
// results.
func RunSpec(spec Spec, p Params) (*export.Table, error) {
	return RunSpecContext(context.Background(), spec, p)
}

// RunSpecContext is RunSpec with cooperative cancellation: ctx reaches
// every dynamics step and churn event of a declarative spec, so a
// deadline or client disconnect aborts the evaluation mid-run and the
// returned error unwraps to ctx.Err(). A context that never fires
// leaves the rendered table byte-identical to RunSpec (the house `==`
// convention — pinned by TestRunSpecContextUnfiredByteIdentical).
// Native experiment runners do not take a context; they only observe a
// pre-cancelled ctx before dispatch.
func RunSpecContext(ctx context.Context, spec Spec, p Params) (*export.Table, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	eff := spec
	if p.Seed != 0 {
		eff.Seed = p.Seed
	}
	if p.Quick {
		eff.Quick = true
	}
	if eff.Experiment != "" {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		native, err := nativeRunner(eff.Experiment)
		if err != nil {
			return nil, err
		}
		return native(Params{Seed: eff.Seed, Quick: eff.Quick, Parallelism: p.Parallelism})
	}
	out, err := runDeclarative(ctx, eff, p.Parallelism)
	if err != nil {
		return nil, err
	}
	measures := effectiveMeasures(eff)
	title := eff.Name
	if title == "" {
		title = fmt.Sprintf("scenario: %s n=%d α=%v", eff.Metric.Family, eff.Metric.PeerCount(), eff.Game.Alpha)
	}
	tb := &export.Table{Title: title, Headers: specHeaders(measures)}
	row, err := out.row(measures)
	if err != nil {
		return nil, err
	}
	tb.Rows = append(tb.Rows, row)
	if eff.Description != "" {
		tb.Notes = append(tb.Notes, eff.Description)
	}
	if out.nonEquilibrium {
		tb.Notes = append(tb.Notes, nonEquilibriumNote)
	}
	return tb, nil
}
