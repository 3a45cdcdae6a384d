package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"selfishnet/internal/churn"
	"selfishnet/internal/export"
)

// Sweep is a grid of declarative Specs over the axes α, n, seed, γ,
// churn rate, repair strategy and estimator sample budget. Axes left
// empty stay at the base spec's value, so a sweep degrades gracefully
// down to a single point. Grid points are independent specs with
// explicit seeds, so they execute concurrently with tables that are
// byte-identical at every parallelism width: rows are reduced in grid
// order (seed-major, then n, α, γ, churn rate, repair, samples — the
// nesting order of Points).
type Sweep struct {
	// Name titles the result table.
	Name string `json:"name,omitempty"`
	// Description is free-form documentation, echoed as a table note.
	Description string `json:"description,omitempty"`
	// Base is the spec every grid point derives from. It must be
	// declarative: native paper runners produce bespoke tables that do
	// not grid over shared axes.
	Base Spec `json:"base"`
	// Alphas overrides Base.Game.Alpha per point.
	Alphas []float64 `json:"alphas,omitempty"`
	// Ns overrides Base.Metric.N per point (sized families only).
	Ns []int `json:"ns,omitempty"`
	// Seeds overrides Base.Seed per point.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Gammas overrides Base.Game.Gamma per point.
	Gammas []float64 `json:"gammas,omitempty"`
	// ChurnRates overrides Base.Churn.Rate per point; Repairs overrides
	// Base.Churn.Repair. Both require a churn block in the base spec and
	// grid innermost (after γ), so a sweep can ask "does the equilibrium
	// survive churn?" across rate × repair strategy × α in one table.
	ChurnRates []float64 `json:"churn_rates,omitempty"`
	Repairs    []string  `json:"repairs,omitempty"`
	// Samples overrides Base.Estimate.Samples per point. It requires an
	// estimate block in the base spec and grids innermost (after repair),
	// so one table can show est-social converging on the exact value as
	// the sample budget grows.
	Samples []int `json:"samples,omitempty"`
}

// Validate checks the sweep without running anything.
func (sw Sweep) Validate() error {
	if sw.Base.Experiment != "" {
		return fmt.Errorf("scenario: sweep %q: base must be declarative, not experiment %q",
			sw.Name, sw.Base.Experiment)
	}
	if err := sw.Base.Validate(); err != nil {
		return err
	}
	if len(sw.Ns) > 0 && !sw.Base.Metric.Sizeable() {
		return fmt.Errorf("scenario: sweep %q: metric family %q has fixed geometry, cannot sweep n",
			sw.Name, sw.Base.Metric.Family)
	}
	for _, n := range sw.Ns {
		if n < 2 {
			return fmt.Errorf("scenario: sweep %q: n axis value %d < 2", sw.Name, n)
		}
	}
	for _, a := range sw.Alphas {
		if a < 0 {
			return fmt.Errorf("scenario: sweep %q: negative alpha %v", sw.Name, a)
		}
	}
	for _, g := range sw.Gammas {
		if g < 0 {
			return fmt.Errorf("scenario: sweep %q: negative gamma %v", sw.Name, g)
		}
	}
	for _, seed := range sw.Seeds {
		if seed == 0 {
			// 0 would collapse to DefaultSeed and duplicate that grid
			// point; a seeds axis must be explicit.
			return fmt.Errorf("scenario: sweep %q: seed axis value 0 (0 means DefaultSeed %d; list explicit seeds)",
				sw.Name, DefaultSeed)
		}
	}
	if (len(sw.ChurnRates) > 0 || len(sw.Repairs) > 0) && sw.Base.Churn.isZero() {
		return fmt.Errorf("scenario: sweep %q: churn axes need a churn block in the base spec", sw.Name)
	}
	for _, rate := range sw.ChurnRates {
		if rate < 0 {
			return fmt.Errorf("scenario: sweep %q: negative churn rate %v", sw.Name, rate)
		}
	}
	for _, repair := range sw.Repairs {
		if _, err := churn.ParseRepairKind(repair); err != nil {
			return fmt.Errorf("scenario: sweep %q: %w", sw.Name, err)
		}
	}
	if len(sw.Samples) > 0 && sw.Base.Estimate.isZero() {
		return fmt.Errorf("scenario: sweep %q: samples axis needs an estimate block in the base spec", sw.Name)
	}
	for _, k := range sw.Samples {
		if k < 1 {
			return fmt.Errorf("scenario: sweep %q: samples axis value %d < 1", sw.Name, k)
		}
	}
	return nil
}

// Points expands the grid into fully-specified Specs in deterministic
// order: seeds outermost, then n, α, γ. Empty axes contribute the base
// value as a single point.
func (sw Sweep) Points() []Spec {
	seeds := sw.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{sw.Base.Seed}
	}
	type nAxis struct {
		set bool
		n   int
	}
	ns := []nAxis{{}}
	if len(sw.Ns) > 0 {
		ns = ns[:0]
		for _, n := range sw.Ns {
			ns = append(ns, nAxis{set: true, n: n})
		}
	}
	alphas := sw.Alphas
	if len(alphas) == 0 {
		alphas = []float64{sw.Base.Game.Alpha}
	}
	gammas := sw.Gammas
	if len(gammas) == 0 {
		gammas = []float64{sw.Base.Game.Gamma}
	}
	rates := sw.ChurnRates
	if len(rates) == 0 {
		rates = []float64{sw.Base.Churn.Rate}
	}
	repairs := sw.Repairs
	if len(repairs) == 0 {
		repairs = []string{sw.Base.Churn.Repair}
	}
	samples := sw.Samples
	if len(samples) == 0 {
		samples = []int{sw.Base.Estimate.Samples}
	}
	var points []Spec
	for _, seed := range seeds {
		for _, n := range ns {
			for _, alpha := range alphas {
				for _, gamma := range gammas {
					for _, rate := range rates {
						for _, repair := range repairs {
							for _, k := range samples {
								spec := sw.Base
								spec.Seed = seed
								if n.set {
									spec.Metric.N = n.n
								}
								spec.Game.Alpha = alpha
								spec.Game.Gamma = gamma
								spec.Churn.Rate = rate
								spec.Churn.Repair = repair
								spec.Estimate.Samples = k
								points = append(points, spec)
							}
						}
					}
				}
			}
		}
	}
	return points
}

// Point is one grid point of a sweep: its position in grid order, the
// fully-specified Spec, and the spec's canonical content hash
// (Spec.Hash of the point as it would execute). The hash is the dedup
// key the distributed fabric and the persistent result store share:
// two sweeps whose grids overlap produce points with equal hashes, so
// a point executed for one sweep serves the other from the store.
type Point struct {
	Index int    `json:"index"`
	Spec  Spec   `json:"spec"`
	Hash  string `json:"hash"`
}

// EnumeratePoints validates the sweep and expands its grid into hashed
// points in grid order — the Specs Points returns, each paired with
// its canonical hash. Quick mode must already be folded into the base
// spec (as the serve layer does); the hashes then address the points
// exactly as they execute.
func (sw Sweep) EnumeratePoints() ([]Point, error) {
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	specs := sw.Points()
	pts := make([]Point, len(specs))
	for i, spec := range specs {
		h, err := spec.Hash()
		if err != nil {
			return nil, err
		}
		pts[i] = Point{Index: i, Spec: spec, Hash: h}
	}
	return pts, nil
}

// Measures returns the measure columns the sweep's rows record — the
// base spec's list, or DefaultMeasures when it names none. The sweep
// engine and the distributed fabric's shard assignments share it, so
// rows rendered anywhere concatenate into the same table.
func (sw Sweep) Measures() []string {
	return append([]string(nil), effectiveMeasures(sw.Base)...)
}

// RowWidth is the number of cells in each of the sweep's point rows,
// one per column of its table. Assemble refuses a row of any other
// width, and so does the fabric before it stores one.
func (sw Sweep) RowWidth() int { return len(specHeaders(effectiveMeasures(sw.Base))) }

// PointResult is the rendered outcome of one executed grid point: its
// table row under the sweep's measure columns, plus the cut-off flag
// the table footer aggregates. It is the unit of work the distributed
// fabric ships back from workers and stores content-addressed.
type PointResult struct {
	Row            []string `json:"row"`
	NonEquilibrium bool     `json:"non_equilibrium,omitempty"`
}

// RunPointContext executes one grid point spec and renders its row
// under the given measure columns (Sweep.Measures of the owning sweep).
// parallelism is the point's internal fan-out width and never changes
// the row. Concatenating RunPointContext results in grid order and
// passing them to Assemble reproduces Sweep.Run byte-for-byte — the
// invariant the distributed fabric's reassembly rests on. ctx reaches
// every dynamics step and churn event of the point, so sweep
// cancellation and worker shutdown land mid-point instead of at grid
// boundaries; the row does not depend on ctx unless it fires.
func RunPointContext(ctx context.Context, spec Spec, measures []string, parallelism int) (PointResult, error) {
	out, err := runDeclarative(ctx, spec, parallelism)
	if err != nil {
		return PointResult{}, err
	}
	row, err := out.row(measures)
	if err != nil {
		return PointResult{}, err
	}
	return PointResult{Row: row, NonEquilibrium: out.nonEquilibrium}, nil
}

// FailedPoint describes one grid point that could not be executed: its
// grid index, the spec's content hash, the final error, and how many
// attempts were spent before giving up. It is the unit of the
// structured partial-failure report produced by the fabric's
// poison-point quarantine and by keep-going CLI sweeps.
type FailedPoint struct {
	Index    int    `json:"index"`
	Hash     string `json:"hash,omitempty"`
	Error    string `json:"error"`
	Attempts int    `json:"attempts,omitempty"`
}

// FailedCell is the placeholder rendered into every cell of a failed
// point's row in a partial sweep table.
const FailedCell = "error"

// AssemblePartial is Assemble for sweeps where some grid points failed
// permanently: healthy points' rows are reduced exactly as Assemble
// would (byte-identical to the fault-free table's rows), failed
// points' rows are filled with FailedCell placeholders, and the table
// carries a deterministic note per failure — the structured
// partial-failure report in rendered form. An empty failed list
// delegates to Assemble. Failed indexes must be in range and strictly
// increasing (the quarantine report is kept in grid order).
func (sw Sweep) AssemblePartial(results []PointResult, failed []FailedPoint) (*export.Table, error) {
	if len(failed) == 0 {
		return sw.Assemble(results)
	}
	if len(results) != len(sw.Points()) {
		return nil, fmt.Errorf("scenario: sweep %q: %d point result(s) for a %d-point grid",
			sw.Name, len(results), len(sw.Points()))
	}
	width := sw.RowWidth()
	filled := append([]PointResult(nil), results...)
	prev := -1
	for _, f := range failed {
		if f.Index <= prev || f.Index >= len(filled) {
			return nil, fmt.Errorf("scenario: sweep %q: failed point index %d out of order or range", sw.Name, f.Index)
		}
		prev = f.Index
		row := make([]string, width)
		for i := range row {
			row[i] = FailedCell
		}
		filled[f.Index] = PointResult{Row: row}
	}
	tb, err := sw.Assemble(filled)
	if err != nil {
		return nil, err
	}
	tb.Notes = append(tb.Notes, fmt.Sprintf("partial failure: %d of %d point(s) quarantined; their rows read %q",
		len(failed), len(filled), FailedCell))
	for _, f := range failed {
		note := fmt.Sprintf("point %d failed: %s", f.Index, f.Error)
		if f.Attempts > 0 {
			note += fmt.Sprintf(" (after %d attempt(s))", f.Attempts)
		}
		tb.Notes = append(tb.Notes, note)
	}
	return tb, nil
}

// Assemble reduces per-point results, in grid order, into the sweep's
// result table — exactly the table Run produces when it executes the
// same points itself. Results must be complete (one per grid point, in
// grid order); the fabric coordinator guarantees that by filling an
// index-addressed slice before calling Assemble.
func (sw Sweep) Assemble(results []PointResult) (*export.Table, error) {
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	points := sw.Points()
	if len(results) != len(points) {
		return nil, fmt.Errorf("scenario: sweep %q: %d point result(s) for a %d-point grid",
			sw.Name, len(results), len(points))
	}
	headers := specHeaders(effectiveMeasures(sw.Base))
	width := sw.RowWidth()
	rows := make([][]string, len(results))
	cutOffPoints := 0
	for i, res := range results {
		if len(res.Row) != width {
			return nil, fmt.Errorf("scenario: sweep %q: point %d row has %d cell(s), want %d",
				sw.Name, i, len(res.Row), width)
		}
		rows[i] = res.Row
		if res.NonEquilibrium {
			cutOffPoints++
		}
	}

	title := sw.Name
	if title == "" {
		title = fmt.Sprintf("sweep over %s", sw.Base.Metric.Family)
	}
	tb := &export.Table{Title: title, Headers: headers, Rows: rows}
	if sw.Description != "" {
		tb.Notes = append(tb.Notes, sw.Description)
	}
	axes := "seeds×n×α×γ"
	if len(sw.ChurnRates) > 0 || len(sw.Repairs) > 0 {
		axes += "×churn-rate×repair"
	}
	if len(sw.Samples) > 0 {
		axes += "×samples"
	}
	tb.Notes = append(tb.Notes, fmt.Sprintf("grid: %d points (%s), rows in grid order", len(points), axes))
	if cutOffPoints > 0 {
		tb.Notes = append(tb.Notes, fmt.Sprintf("%d point(s): %s", cutOffPoints, nonEquilibriumNote))
	}
	return tb, nil
}

// Run executes every grid point and reduces the rows, in grid order,
// into one table. parallelism bounds concurrent grid points (0 = all
// cores, 1 = sequential); each point's internal replica fan-out gets
// the remaining budget, and the table is byte-identical at any width.
// Params.Seed is ignored (the seed axis owns seeding); Params.Quick
// trims every point.
func (sw Sweep) Run(p Params, parallelism int) (*export.Table, error) {
	return sw.RunContext(context.Background(), p, parallelism, nil)
}

// RunContext is Run with cooperative cancellation and progress
// reporting, the entry point of the serve layer's async sweep jobs.
// ctx is checked between grid points and threaded into each point
// (RunPointContext), so cancellation lands mid-point: in-flight points
// abort at their next dynamics step and the error wraps ctx.Err().
// progress, when non-nil, is called after each finished point with
// the number of finished points and the grid size; calls are
// serialized, arrive in completion order (not grid order), and all
// workers are joined before RunContext returns — no call fires after
// it returns, even on cancellation. Neither ctx nor progress affects
// the result table: a run that completes is byte-identical to Run at
// any parallelism width. A failed point fails the sweep with the
// lowest-index point error.
func (sw Sweep) RunContext(ctx context.Context, p Params, parallelism int, progress func(done, total int)) (*export.Table, error) {
	_, results, errs, err := sw.runGrid(ctx, p, parallelism, progress)
	if err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scenario: sweep point %d: %w", i, err)
		}
	}
	return sw.Assemble(results)
}

// RunPartialContext is RunContext with keep-going semantics: a grid
// point that fails to execute no longer aborts the sweep — its row is
// rendered as FailedCell placeholders and reported in the returned
// FailedPoint list (grid order, single attempt each), while healthy
// points' rows stay byte-identical to a fault-free run. The error
// return covers sweep-level problems only (validation, cancellation,
// assembly); a fully healthy run returns an empty failure list.
func (sw Sweep) RunPartialContext(ctx context.Context, p Params, parallelism int, progress func(done, total int)) (*export.Table, []FailedPoint, error) {
	points, results, errs, err := sw.runGrid(ctx, p, parallelism, progress)
	if err != nil {
		return nil, nil, err
	}
	var failed []FailedPoint
	for i, err := range errs {
		if err == nil {
			continue
		}
		hash, herr := points[i].Hash()
		if herr != nil {
			hash = ""
		}
		failed = append(failed, FailedPoint{Index: i, Hash: hash, Error: err.Error(), Attempts: 1})
	}
	table, err := sw.AssemblePartial(results, failed)
	if err != nil {
		return nil, nil, err
	}
	return table, failed, nil
}

// runGrid is the grid loop behind RunContext and RunPartialContext: it
// validates the sweep and executes every point, returning the points
// with each one's row and error in grid order. The error return is
// validation or cancellation only; a cancel that lands after the last
// claim still counts as cancellation.
func (sw Sweep) runGrid(ctx context.Context, p Params, parallelism int, progress func(done, total int)) ([]Spec, []PointResult, []error, error) {
	if err := sw.Validate(); err != nil {
		return nil, nil, nil, err
	}
	points := sw.Points()
	measures := effectiveMeasures(sw.Base)
	// Grid points get the worker goroutines; each point's internal
	// replica fan-out gets the remaining budget (one point keeps the
	// whole width, many points on few cores run replicas sequentially).
	workers, inner := splitBudget(parallelism, len(points), p.Parallelism)

	results := make([]PointResult, len(points))
	errs := make([]error, len(points))
	var progressMu sync.Mutex
	finished := 0
	forEachIndexCtx(ctx, len(points), workers, func(i int) {
		spec := points[i]
		if p.Quick {
			spec.Quick = true
		}
		results[i], errs[i] = RunPointContext(ctx, spec, measures, inner)
		if progress != nil {
			// Count inside the critical section so reported progress is
			// monotone: increment-then-lock would let a slower worker
			// report a smaller count after a faster one.
			progressMu.Lock()
			finished++
			progress(finished, len(points))
			progressMu.Unlock()
		}
	})
	if err := ctx.Err(); err != nil {
		// Some points never ran, or a point aborted mid-run: either way
		// the sweep was cancelled, not a point quarantined.
		return nil, nil, nil, fmt.Errorf("scenario: sweep %q: %w", sw.Name, err)
	}
	return points, results, errs, nil
}

// ReadSweep decodes a Sweep from JSON, rejecting unknown fields.
func ReadSweep(r io.Reader) (Sweep, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sw Sweep
	if err := dec.Decode(&sw); err != nil {
		return Sweep{}, fmt.Errorf("scenario: decoding sweep: %w", err)
	}
	if err := sw.Validate(); err != nil {
		return Sweep{}, err
	}
	return sw, nil
}

// WriteJSON encodes the sweep with indentation.
func (sw Sweep) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sw)
}
