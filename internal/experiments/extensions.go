package experiments

import (
	"fmt"
	"math"

	"selfishnet/internal/analysis"
	"selfishnet/internal/bestresponse"
	"selfishnet/internal/core"
	"selfishnet/internal/dynamics"
	"selfishnet/internal/export"
	"selfishnet/internal/metric"
	"selfishnet/internal/nash"
	"selfishnet/internal/opt"
	"selfishnet/internal/rng"
	"selfishnet/internal/scenario"
)

// E11Landscape maps the full equilibrium landscape of tiny instances by
// exhaustive enumeration: every pure Nash equilibrium, the social
// optimum, and therefore the exact Price of Anarchy (worst Nash / OPT)
// and Price of Stability (best Nash / OPT). The paper studies the worst
// Nash; the landscape shows how wide the equilibrium set actually is.
func E11Landscape(p scenario.Params) (*export.Table, error) {
	type instSpec struct {
		name      string
		positions []float64
		alpha     float64
	}
	specs := []instSpec{
		{"even-line", []float64{0, 1, 2, 3}, 2},
		{"uneven-line", []float64{0, 1, 1.5, 4}, 2},
		{"even-line-hi-a", []float64{0, 1, 2, 3}, 8},
		{"exp-line", []float64{0.5, 4, 8, 64}, 4}, // Figure 1 prefix (n=4, α=4)
	}
	if p.Quick {
		specs = specs[:2]
	}
	tb := &export.Table{
		Title:   "E11: exact equilibrium landscape on tiny instances (exhaustive over all profiles)",
		Headers: []string{"instance", "n", "alpha", "equilibria", "C(OPT)", "best-nash", "worst-nash", "PoS", "PoA"},
	}
	for _, spec := range specs {
		space, err := metric.Line(spec.positions)
		if err != nil {
			return nil, err
		}
		inst, err := core.NewInstance(space, spec.alpha)
		if err != nil {
			return nil, err
		}
		ev := core.NewEvaluator(inst)
		eqs, err := nash.EnumerateEquilibria(ev, 0)
		if err != nil {
			return nil, err
		}
		_, optCost, err := opt.Exhaustive(ev, 0)
		if err != nil {
			return nil, err
		}
		best, worst := math.Inf(1), 0.0
		for _, q := range eqs {
			c := ev.SocialCost(q).Total()
			best = math.Min(best, c)
			worst = math.Max(worst, c)
		}
		pos, poa := math.NaN(), math.NaN()
		if len(eqs) > 0 {
			pos = best / optCost.Total()
			poa = worst / optCost.Total()
		}
		tb.AddRow(
			spec.name, export.Int(inst.N()), export.Num(spec.alpha),
			export.Int(len(eqs)), export.Num(optCost.Total()),
			export.Num(best), export.Num(worst),
			export.Num(pos), export.Num(poa),
		)
	}
	tb.Notes = append(tb.Notes,
		"every profile of the 2^(n(n-1)) space is checked: equilibria, OPT, PoS and PoA are exact",
		"PoS = best Nash / OPT, PoA = worst Nash / OPT; the paper's bounds concern the PoA")
	return tb, nil
}

// E12Oracles is the oracle ablation: how close the scalable heuristics
// (local search, greedy) come to the exact best response, and what the
// exact oracle's pruning buys. For random profiles on random metrics it
// reports the fraction of exactly-optimal answers, the mean relative
// cost gap, and the subsets the exact oracle actually evaluated versus
// the unpruned 2^(n-1).
func E12Oracles(p scenario.Params) (*export.Table, error) {
	n := 12
	trials := 60
	if p.Quick {
		n = 9
		trials = 15
	}
	alphas := []float64{1, 4, 16}
	tb := &export.Table{
		Title:   "E12 (ablation): deviation oracles vs the exact best response",
		Headers: []string{"alpha", "oracle", "trials", "exact-hits", "mean-gap%", "max-gap%", "evals/exact-call", "unpruned"},
	}
	for _, alpha := range alphas {
		r := rng.New(p.EffectiveSeed() + uint64(alpha))
		space, err := metric.UniformPoints(r, n, 2)
		if err != nil {
			return nil, err
		}
		inst, err := core.NewInstance(space, alpha)
		if err != nil {
			return nil, err
		}
		ev := core.NewEvaluator(inst)

		type oracleStats struct {
			hits   int
			sumGap float64
			maxGap float64
		}
		heuristics := map[string]bestresponse.Oracle{
			"local-search": &bestresponse.LocalSearch{},
			"greedy":       &bestresponse.Greedy{},
		}
		agg := map[string]*oracleStats{
			"local-search": {}, "greedy": {},
		}
		totalEvals := 0
		for trial := 0; trial < trials; trial++ {
			prof := dynamics.RandomProfile(r, n, 0.3)
			peer := r.Intn(n)
			exact := &bestresponse.Exact{}
			exRes, err := exact.BestResponse(ev, prof, peer)
			if err != nil {
				return nil, err
			}
			totalEvals += exact.Evaluations()
			for name, o := range heuristics {
				res, err := o.BestResponse(ev, prof, peer)
				if err != nil {
					return nil, err
				}
				st := agg[name]
				// Compare on the finite key; heuristics can never beat
				// exact (asserted in the oracle tests).
				gap := 0.0
				if exRes.Eval.Unreachable == res.Eval.Unreachable && exRes.Eval.Key() > 0 {
					gap = (res.Eval.Key() - exRes.Eval.Key()) / exRes.Eval.Key()
				} else if res.Eval.Unreachable > exRes.Eval.Unreachable {
					gap = math.Inf(1)
				}
				if gap <= 1e-9 {
					st.hits++
				}
				st.sumGap += math.Min(gap, 10) // cap Inf for the mean
				st.maxGap = math.Max(st.maxGap, gap)
			}
		}
		for _, name := range []string{"local-search", "greedy"} {
			st := agg[name]
			tb.AddRow(
				export.Num(alpha), name, export.Int(trials),
				export.Int(st.hits),
				export.Num(100*st.sumGap/float64(trials)),
				export.Num(100*st.maxGap),
				export.Num(float64(totalEvals)/float64(trials)),
				export.Num(math.Pow(2, float64(n-1))),
			)
		}
	}
	tb.Notes = append(tb.Notes,
		"exact-hits: trials where the heuristic matched the exact optimum",
		"evals/exact-call: candidate strategies the pruned exact oracle scored, vs the unpruned 2^(n-1)")
	return tb, nil
}

// E13Congestion explores the paper's Section 6 future work: link
// latencies inflate with the target's in-degree (γ > 0). The table
// compares equilibria reached by dynamics for increasing γ: hub-ness
// (max in-degree, degree Gini), links, and stretch. Congestion should
// flatten hubs and spread load.
func E13Congestion(p scenario.Params) (*export.Table, error) {
	n := 12
	runs := 5
	if p.Quick {
		n = 9
		runs = 2
	}
	gammas := []float64{0, 0.25, 1, 4}
	tb := &export.Table{
		Title:   "E13 (§6 future work): congestion-aware game — hubs become expensive",
		Headers: []string{"gamma", "runs", "links(mean)", "max-indeg(mean)", "degree-gini(mean)", "mean-stretch", "max-stretch"},
	}
	for _, gamma := range gammas {
		r := rng.New(p.EffectiveSeed() + 17)
		space, err := metric.UniformPoints(r, n, 2)
		if err != nil {
			return nil, err
		}
		inst, err := core.NewInstance(space, 2, core.WithCongestion(gamma))
		if err != nil {
			return nil, err
		}
		ev := core.NewEvaluator(inst)
		var links, maxIn, gini, meanStretch, maxStretch float64
		converged := 0
		for run := 0; run < runs; run++ {
			res, err := dynamics.Run(ev, dynamics.RandomProfile(r, n, 0.2), dynamics.Config{
				Oracle:   &bestresponse.LocalSearch{},
				Policy:   &dynamics.RoundRobin{},
				MaxSteps: 4000,
				Rand:     r.Split(),
			})
			if err != nil {
				return nil, err
			}
			if !res.Converged {
				continue
			}
			converged++
			st, err := analysis.Analyze(ev, res.Final)
			if err != nil {
				return nil, err
			}
			links += float64(st.Links)
			maxIn += st.InDegree.Max
			gini += st.DegreeGini
			meanStretch += st.Stretch.Mean
			maxStretch = math.Max(maxStretch, st.Stretch.Max)
		}
		if converged == 0 {
			return nil, fmt.Errorf("e13: no run converged at γ=%v", gamma)
		}
		c := float64(converged)
		tb.AddRow(
			export.Num(gamma), export.Int(converged),
			export.Num(links/c), export.Num(maxIn/c), export.Num(gini/c),
			export.Num(meanStretch/c), export.Num(maxStretch),
		)
	}
	tb.Notes = append(tb.Notes,
		"γ=0 is the paper's base model; growing γ makes pointing at popular peers slower",
		"stable states are local-search stable (exact verification is unaffected by congestion but slower)")
	return tb, nil
}
