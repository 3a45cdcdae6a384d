package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selfishnet/internal/bestresponse"
	"selfishnet/internal/churn"
	"selfishnet/internal/core"
	"selfishnet/internal/dynamics"
	"selfishnet/internal/export"
	"selfishnet/internal/opt"
	"selfishnet/internal/rng"
	"selfishnet/internal/scenario"
)

// sweepWidth is the grid fan-out of every sweep-dyn sweep: one point
// per core of the two-core box, each point single-threaded inside.
const sweepWidth = 2

// churnMeasures are the columns of the churn sub-grid; every other
// sub-grid records scenario.DefaultMeasures. The traced replay renders
// exactly these columns itself.
var churnMeasures = []string{"converged", "mean-steps", "links", "social-cost", "churn-events", "tail-stable"}

// sweepGrids generates the sweep-dyn sub-grids from the seed. The
// fresh engine runs the points below dynamics.IncrementalMinPeers (64
// peers), the incremental engine the rest; together they cover the
// three oracles, the bfs (unit), dial (integer line) and heap
// (uniform, γ>0) kernels, replica mode, an undirected game and churn.
func sweepGrids(seed uint64) []scenario.Sweep {
	r := rng.New(seed)
	seeds := func(k int) []uint64 {
		out := make([]uint64, k)
		for i := range out {
			out[i] = r.Uint64()>>1 | 1
		}
		return out
	}
	line := func(n int) []float64 {
		pos := make([]float64, n)
		x := 0.0
		for i := range pos {
			x += float64(1 + r.Intn(2))
			pos[i] = x
		}
		return pos
	}
	// maxSteps caps every run at a few moves per peer: converging runs
	// here take 1–3 moves per peer, and the cap keeps a seed whose
	// dynamics cycle from costing an order of magnitude more than the
	// rest (such a point reports converged 0, as the engine does).
	base := func(family string, n int, alpha float64, oracle string, maxSteps int) scenario.Spec {
		return scenario.Spec{
			Metric:   scenario.MetricSpec{Family: family, N: n},
			Game:     scenario.GameSpec{Alpha: alpha},
			Dynamics: scenario.DynamicsSpec{Oracle: oracle, MaxSteps: maxSteps},
		}
	}
	exactUnit := base("unit", 11, 1, "exact", 60)
	exactUnit.Start.Kind = "random"
	congestion := base("uniform", 16, 2, "local-search", 64)
	congestion.Game.Gamma = 0.5
	replicas := base("uniform", 16, 2, "local-search", 64)
	replicas.Dynamics.Runs = 3
	undirected := base("uniform", 24, 2, "greedy", 96)
	undirected.Game.Undirected = true
	churned := base("uniform", 20, 2, "greedy", 80)
	churned.Churn = scenario.ChurnSpec{Rate: 0.05, Duration: 5}
	churned.Measures = churnMeasures
	lineGreedy := scenario.Spec{
		Metric:   scenario.MetricSpec{Family: "line", Positions: line(72)},
		Game:     scenario.GameSpec{Alpha: 4},
		Dynamics: scenario.DynamicsSpec{Oracle: "greedy", MaxSteps: 220},
	}
	lineLocal := lineGreedy
	lineLocal.Metric.Positions = line(64)
	lineLocal.Dynamics.Oracle = "local-search"
	return []scenario.Sweep{
		{Name: "exact-unit", Base: exactUnit, Ns: []int{11, 12}, Alphas: []float64{0.8, 1.5, 3}, Seeds: seeds(4)},
		{Name: "local-uniform", Base: base("uniform", 20, 2, "local-search", 112), Ns: []int{20, 28}, Alphas: []float64{1, 3}, Seeds: seeds(6)},
		{Name: "congestion", Base: congestion, Gammas: []float64{0.25, 1}, Seeds: seeds(6)},
		{Name: "replicas", Base: replicas, Alphas: []float64{1.5, 4}, Seeds: seeds(3)},
		{Name: "undirected", Base: undirected, Alphas: []float64{1, 3}, Seeds: seeds(6)},
		{Name: "churn", Base: churned, Repairs: []string{"selfish", "nearest"}, Seeds: seeds(3)},
		{Name: "greedy-line", Base: lineGreedy, Alphas: []float64{2, 6}, Seeds: seeds(2)},
		{Name: "greedy-unit", Base: base("unit", 64, 2, "greedy", 300), Ns: []int{64, 96}, Alphas: []float64{1.5, 4}, Seeds: seeds(2)},
		{Name: "greedy-ring", Base: base("ring", 64, 2, "greedy", 200), Alphas: []float64{1.5, 3}, Seeds: seeds(1)},
		{Name: "local-line", Base: lineLocal, Alphas: []float64{2, 6}, Seeds: seeds(1)},
	}
}

// encodeGrids renders grids as the JSON bodies `topogame sweep` reads.
func encodeGrids(grids []scenario.Sweep) ([][]byte, error) {
	out := make([][]byte, len(grids))
	for i, sw := range grids {
		var buf bytes.Buffer
		if err := sw.WriteJSON(&buf); err != nil {
			return nil, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// decodeGrids reads and validates grid bodies like `topogame sweep`.
func decodeGrids(bodies [][]byte) ([]scenario.Sweep, error) {
	out := make([]scenario.Sweep, len(bodies))
	for i, b := range bodies {
		sw, err := scenario.ReadSweep(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		out[i] = sw
	}
	return out, nil
}

func tableJSON(tb *export.Table) ([]byte, error) {
	var buf bytes.Buffer
	err := tb.WriteJSON(&buf)
	return buf.Bytes(), err
}

// runSweepDyn times scenario.Sweep over the sub-grids at width 2, in
// process, with no HTTP and no store. A round runs every sub-grid once.
func runSweepDyn(e *runEnv) error {
	rep := &e.rep
	rep.workUnit = "points"
	// Set-up is what `topogame sweep` does before its first point:
	// generate the seeded grid bodies, then read and validate them.
	setup := func() ([]scenario.Sweep, error) {
		bodies, err := encodeGrids(sweepGrids(e.opts.seed))
		if err != nil {
			return nil, err
		}
		return decodeGrids(bodies)
	}
	grids, err := timeSetups(rep, 5, 20, nil, setup, func([]scenario.Sweep) {})
	if err != nil {
		return err
	}

	// Reference: the same grids at width 1, untimed, once per seed.
	ref := make([]*export.Table, len(grids))
	refJSON := make([][]byte, len(grids))
	points := 0
	for i, sw := range grids {
		if ref[i], err = sw.Run(scenario.Params{}, 1); err != nil {
			return fmt.Errorf("reference %s: %w", sw.Name, err)
		}
		if refJSON[i], err = tableJSON(ref[i]); err != nil {
			return err
		}
		points += len(ref[i].Rows)
	}

	var oracleUs []float64
	var pointSpans spanQuery
	round := 0
	err = e.rounds(func(tr *tracer) (time.Duration, error) {
		round++
		run := func(sw scenario.Sweep) (*export.Table, error) {
			return sw.RunContext(context.Background(), scenario.Params{}, sweepWidth, nil)
		}
		st := &dynStats{}
		if tr != nil {
			run = func(sw scenario.Sweep) (*export.Table, error) { return tracedSweep(tr, sw, st) }
		}
		got := make([]*export.Table, len(grids))
		var elapsed time.Duration
		mark, lo := tr.mark(), tr.now()
		for i, sw := range grids {
			t0 := time.Now()
			tb, err := run(sw)
			elapsed += time.Since(t0)
			rep.attempted += int64(len(ref[i].Rows))
			if err != nil {
				rep.failOps(int64(len(ref[i].Rows)), "round %d %s: %v", round, sw.Name, err)
				continue
			}
			got[i] = tb
		}
		if tr != nil {
			hi := tr.now()
			q := tr.since(mark).within(lo, hi)
			rep.addRound(sweepLayers(q, st))
			rep.uncovered = append(rep.uncovered, 1-coverage(q, lo, hi))
			oracleUs = append(oracleUs, durations(q.named("oracle.call").durs(), time.Microsecond)...)
			pointSpans = append(pointSpans, q.named("scenario.point")...)
		}
		// Byte-identity against the width-1 reference, outside the
		// timed region; each differing row is a failed point.
		for i, tb := range got {
			if tb == nil {
				continue
			}
			b, err := tableJSON(tb)
			if err != nil {
				return 0, err
			}
			if !bytes.Equal(b, refJSON[i]) {
				d := differingRows(tb, ref[i])
				rep.failOps(int64(max(d, 1)), "round %d %s: table differs from the width-1 reference in %d rows", round, grids[i].Name, d)
			}
		}
		e.recordRound(tr, float64(points), elapsed)
		// One more set-up batch per round spreads the set-up samples
		// over the whole run, so a load spike at start-up cannot move
		// their median.
		if _, err := timeSetups(rep, 1, 20, nil, setup, func([]scenario.Sweep) {}); err != nil {
			return 0, err
		}
		return elapsed, nil
	})
	if err != nil {
		return err
	}
	if e.opts.trace {
		rep.finishLayers()
		rep.setLayerPct("scenario.point_ms_p50", pointSpans, 50, time.Millisecond)
		rep.setLayerPct("scenario.point_ms_p90", pointSpans, 90, time.Millisecond)
		rep.setLayerSamplesPct("oracle.call_us_p50", oracleUs, 50)
		rep.setLayerSamplesPct("oracle.call_us_p99", oracleUs, 99)
		f, in := rep.layers["dynamics.busy_s.fresh"], rep.layers["dynamics.busy_s.incremental"]
		fmt.Fprintf(e.out, "share: fresh engine %.1f%%, incremental engine %.1f%% of dynamics time per traced round (%.3f s vs %.3f s)\n",
			100*ratio(f, f+in), 100*ratio(in, f+in), f, in)
	}
	rep.addExtra("points_per_s", "1/s", median(rep.work), len(rep.work))
	fmt.Fprintf(e.out, "grid: %d sub-grids, %d points per round, width %d\n", len(grids), points, sweepWidth)
	return nil
}

func differingRows(a, b *export.Table) int {
	n := 0
	for i := range max(len(a.Rows), len(b.Rows)) {
		if i >= len(a.Rows) || i >= len(b.Rows) || fmt.Sprint(a.Rows[i]) != fmt.Sprint(b.Rows[i]) {
			n++
		}
	}
	return n
}

// dynStats are the counts the traced replay reads off the dynamics and
// oracle results of one round.
type dynStats struct {
	moves, exactEvals, churnEvents atomic.Int64
	reused, settled, relaxed       atomic.Int64
}

// sweepLayers turns one traced round's spans into the scenario, core,
// dynamics, bestresponse and churn metrics of that round.
func sweepLayers(q spanQuery, st *dynStats) map[string]float64 {
	self := selfTimes(q)
	m := map[string]float64{}
	m["scenario.points"] = float64(len(q.named("scenario.point")))
	var scen spanQuery
	for _, s := range q {
		if strings.HasPrefix(s.Name, "scenario.") {
			scen = append(scen, s)
		}
	}
	m["scenario.self_s"] = scen.selfTotal(self)
	m["core.instance_s"] = q.named("core.instance").total()
	dyn := q.named("dynamics.run")
	fresh, incr := dyn.attr("fresh").total(), dyn.attr("incremental").total()
	m["dynamics.busy_s.fresh"] = fresh
	m["dynamics.busy_s.incremental"] = incr
	m["dynamics.self_s"] = dyn.selfTotal(self)
	moves := float64(st.moves.Load())
	m["dynamics.moves"] = moves
	m["dynamics.moves_per_s"] = ratio(moves, fresh+incr)
	reused, settled, relaxed := float64(st.reused.Load()), float64(st.settled.Load()), float64(st.relaxed.Load())
	m["dynamics.rows_reused"] = reused
	m["dynamics.rows_settled"] = settled
	m["dynamics.rows_relaxed"] = relaxed
	m["dynamics.row_reuse_ratio"] = ratio(reused, reused+settled+relaxed)
	calls := q.named("oracle.call")
	m["oracle.calls"] = float64(len(calls))
	m["oracle.calls_per_move"] = ratio(float64(len(calls)), moves)
	for _, o := range []string{"exact", "local-search", "greedy"} {
		m["oracle.busy_s."+o] = calls.attr(o).total()
	}
	m["oracle.exact_evals"] = float64(st.exactEvals.Load())
	m["churn.events"] = float64(st.churnEvents.Load())
	m["churn.busy_s"] = q.named("churn.run").total()
	return m
}

// tracedSweep runs a grid at width 2 the way Sweep.RunContext does,
// but rebuilds each point from the calls the scenario engine makes so
// every layer boundary gets a span, then assembles the table with
// Sweep.Assemble. The top-level span is the sweep; points run on two
// goroutines under it.
func tracedSweep(tr *tracer, sw scenario.Sweep, st *dynStats) (*export.Table, error) {
	top := tr.begin("scenario.sweep", 0, 0)
	defer tr.end(top)
	points := sw.Points()
	measures := sw.Measures()
	results := make([]scenario.PointResult, len(points))
	errs := make([]error, len(points))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(sweepWidth, len(points)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(points) {
					return
				}
				results[i], errs[i] = tracedPoint(tr, points[i], measures, top.ID, st)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
	}
	return sw.Assemble(results)
}

// tracedOracle times every BestResponse call of the oracle it wraps and
// sums the exact oracle's evaluation counts. Clone wraps the clone, so
// replica runs stay traced.
type tracedOracle struct {
	inner  bestresponse.Oracle
	tr     *tracer
	parent int64
	req    int64
	st     *dynStats
}

func (o *tracedOracle) BestResponse(ev *core.Evaluator, p core.Profile, i int) (bestresponse.Result, error) {
	s := o.tr.begin("oracle.call", o.parent, o.req)
	s.Attr = o.inner.Name()
	res, err := o.inner.BestResponse(ev, p, i)
	o.tr.end(s)
	if ex, ok := o.inner.(*bestresponse.Exact); ok {
		o.st.exactEvals.Add(int64(ex.Evaluations()))
	}
	return res, err
}

func (o *tracedOracle) Clone() bestresponse.Oracle {
	c := *o
	c.inner = o.inner.Clone()
	return &c
}

func (o *tracedOracle) Name() string { return o.inner.Name() }

// tracedPoint executes one grid point through the calls the scenario
// engine makes for a declarative spec — Spec.Normalize, Spec.Instance
// and core.NewEvaluator, StartSpec.Build, dynamics.RunContext or
// ReplicasContext, churn.RunContext — with a span around each, and
// renders the row for the measures the sweep-dyn grids record. The
// row is checked against the untraced reference, so a replay that
// drifted from the engine fails the run instead of timing something
// else.
func tracedPoint(tr *tracer, spec scenario.Spec, measures []string, parent int64, st *dynStats) (scenario.PointResult, error) {
	pt := tr.begin("scenario.point", parent, 0)
	pt.Req = pt.ID
	defer tr.end(pt)
	sp := func(name string) span { return tr.begin(name, pt.ID, pt.ID) }

	s := sp("scenario.normalize")
	spec = spec.Normalize()
	tr.end(s)
	seed := spec.Seed
	r := rng.New(seed)
	s = sp("core.instance")
	inst, err := spec.Instance(r)
	if err != nil {
		return scenario.PointResult{}, err
	}
	ev := core.NewEvaluator(inst)
	tr.end(s)

	policy, err := scenario.PolicyByName(spec.Dynamics.Policy)
	if err != nil {
		return scenario.PointResult{}, err
	}
	oracle, err := scenario.OracleByName(spec.Dynamics.Oracle)
	if err != nil {
		return scenario.PointResult{}, err
	}
	forceFresh, forceIncr := spec.Dynamics.Engine == "fresh", spec.Dynamics.Engine == "incremental"
	// The engine's split of a width-2 sweep: each point gets one core,
	// so batch construction and replicas run sequentially inside it.
	const inner = 1
	batchWorkers := spec.Dynamics.BatchWorkers
	if batchWorkers == 0 {
		batchWorkers = inner
	}
	dynSpan := sp("dynamics.run")
	dynSpan.Attr = "incremental"
	if forceFresh || (!forceIncr && inst.N() < dynamics.IncrementalMinPeers) {
		dynSpan.Attr = "fresh"
	}
	cfg := dynamics.Config{
		Oracle:           &tracedOracle{inner: oracle, tr: tr, parent: dynSpan.ID, req: pt.ID, st: st},
		Policy:           policy,
		Tol:              spec.Dynamics.Tol,
		MaxSteps:         spec.Dynamics.MaxSteps,
		DetectCycles:     spec.Dynamics.DetectCycles,
		Parallelism:      inner,
		BatchWorkers:     batchWorkers,
		ForceFresh:       forceFresh,
		ForceIncremental: forceIncr,
	}
	ctx := context.Background()
	var results []dynamics.Result
	var chosen core.Profile
	var social core.Cost
	chosenOK, haveSocial := false, false
	if spec.Dynamics.Runs == 1 {
		s = sp("scenario.start")
		start, err := spec.Start.Build(inst.N(), r)
		tr.end(s)
		if err != nil {
			return scenario.PointResult{}, err
		}
		dynSpan.Start = tr.now()
		cfg.Rand = r.Split()
		res, err := dynamics.RunContext(ctx, ev, start, cfg)
		tr.end(dynSpan)
		if err != nil {
			return scenario.PointResult{}, err
		}
		results = []dynamics.Result{res}
		chosen, chosenOK = res.Final, true
	} else {
		results, err = dynamics.ReplicasContext(ctx, ev, cfg, spec.Dynamics.Runs, spec.Dynamics.LinkProb, r)
		tr.end(dynSpan)
		if err != nil {
			return scenario.PointResult{}, err
		}
	}
	for _, res := range results {
		st.moves.Add(int64(res.Steps))
		st.reused.Add(int64(res.CacheStats.RowsReused))
		st.settled.Add(int64(res.CacheStats.RowsSettled))
		st.relaxed.Add(int64(res.CacheStats.RowsRelaxed))
	}

	ms := sp("scenario.measures")
	defer tr.end(ms)
	if len(results) > 1 {
		var ok bool
		chosen, social, _, ok = dynamics.WorstConverged(ev, results)
		chosenOK, haveSocial = ok, ok
	}
	row := []string{export.Int(inst.N()), export.Num(spec.Game.Alpha), export.Num(spec.Game.Gamma), strconv.FormatUint(seed, 10)}
	var churnRes *churn.Result
	for _, m := range measures {
		var cell string
		switch m {
		case "converged", "mean-steps":
			conv, steps := 0, 0
			for _, res := range results {
				if res.Converged {
					conv++
					steps += res.Steps
				}
			}
			switch {
			case m == "converged":
				cell = export.Int(conv)
			case conv == 0:
				cell = "-"
			default:
				cell = export.Num(float64(steps) / float64(conv))
			}
		default:
			if !chosenOK {
				cell = "-"
				break
			}
			if !haveSocial && (m == "social-cost" || m == "c-over-lb") {
				social, haveSocial = ev.SocialCost(chosen), true
			}
			switch m {
			case "links":
				cell = export.Int(chosen.LinkCount())
			case "social-cost":
				cell = export.Num(social.Total())
			case "max-stretch":
				cell = export.Num(ev.MaxTerm(chosen))
			case "c-over-lb":
				cell = export.Num(social.Total() / opt.LowerBound(inst))
			case "churn-events", "tail-stable":
				if churnRes == nil {
					res, err := tracedChurn(ctx, tr, sp, spec, inst, chosen, seed, inner)
					if err != nil {
						return scenario.PointResult{}, err
					}
					st.churnEvents.Add(int64(res.Events))
					churnRes = &res
				}
				if m == "churn-events" {
					cell = export.Int(churnRes.Events)
				} else {
					cell = fmt.Sprintf("%v", churnRes.TailStable)
				}
			default:
				return scenario.PointResult{}, fmt.Errorf("traced replay does not render measure %q", m)
			}
		}
		row = append(row, cell)
	}
	return scenario.PointResult{Row: row, NonEquilibrium: len(results) == 1 && !results[0].Converged}, nil
}

// tracedChurn runs the spec's churn phase on the chosen profile with
// the configuration the scenario engine builds.
func tracedChurn(ctx context.Context, tr *tracer, sp func(string) span, spec scenario.Spec, inst *core.Instance, start core.Profile, seed uint64, workers int) (churn.Result, error) {
	kind := churn.RepairSelfish
	if spec.Churn.Repair != "" {
		var err error
		if kind, err = churn.ParseRepairKind(spec.Churn.Repair); err != nil {
			return churn.Result{}, err
		}
	}
	s := sp("churn.run")
	defer tr.end(s)
	return churn.RunContext(ctx, churn.Config{
		Instance:    inst,
		Start:       start,
		Rate:        spec.Churn.Rate,
		Duration:    spec.Churn.Duration,
		Repair:      kind,
		MinOnline:   spec.Churn.MinOnline,
		RepairSteps: spec.Churn.RepairSteps,
		TailSteps:   spec.Churn.TailSteps,
		Seed:        seed,
		Workers:     workers,
	})
}
