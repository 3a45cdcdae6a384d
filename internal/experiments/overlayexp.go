package experiments

import (
	"fmt"
	"math"

	"selfishnet/internal/baseline"
	"selfishnet/internal/bestresponse"
	"selfishnet/internal/core"
	"selfishnet/internal/dynamics"
	"selfishnet/internal/export"
	"selfishnet/internal/metric"
	"selfishnet/internal/opt"
	"selfishnet/internal/overlay"
	"selfishnet/internal/rng"
	"selfishnet/internal/scenario"
)

// metricUniform draws a uniform 2-D point set (shared helper).
func metricUniform(r *rng.RNG, n int) (metric.Space, error) {
	return metric.UniformPoints(r, n, 2)
}

// E7SqrtRegime examines the paper's footnote 2: when α = Θ(√n),
// topologies with constant stretch and O(√n) degree (Tulip-like) are
// asymptotically optimal. The table compares the portfolio constructions
// at α = √n: social cost normalized by the universal lower bound, max
// degree and max stretch.
func E7SqrtRegime(p scenario.Params) (*export.Table, error) {
	ns := []int{16, 36, 64, 100}
	if p.Quick {
		ns = []int{16, 36}
	}
	tb := &export.Table{
		Title:   "E7 (footnote 2): α = √n regime — locality-aware O(√n)-degree overlays are near-optimal",
		Headers: []string{"n", "alpha=√n", "topology", "C/LB", "max-degree", "max-stretch"},
	}
	for _, n := range ns {
		r := rng.New(p.EffectiveSeed() + uint64(n))
		space, err := metricUniform(r, n)
		if err != nil {
			return nil, err
		}
		alpha := math.Sqrt(float64(n))
		inst, err := core.NewInstance(space, alpha)
		if err != nil {
			return nil, err
		}
		ev := core.NewEvaluator(inst)
		lb := opt.LowerBound(inst)
		portfolio, err := opt.Portfolio(inst)
		if err != nil {
			return nil, err
		}
		for _, name := range []string{"tulip", "star", "chain", "full-mesh", "knn-sqrt", "mst"} {
			prof, ok := portfolio[name]
			if !ok {
				return nil, fmt.Errorf("e7: portfolio missing %q", name)
			}
			maxDeg := 0
			for i := 0; i < n; i++ {
				if d := prof.OutDegree(i); d > maxDeg {
					maxDeg = d
				}
			}
			tb.AddRow(
				export.Int(n), export.Num(alpha), name,
				export.Num(ev.SocialCost(prof).Total()/lb),
				export.Int(maxDeg),
				export.Num(ev.MaxTerm(prof)),
			)
		}
	}
	tb.Notes = append(tb.Notes,
		"LB = αn + n(n-1); a C/LB ratio near 1 with O(√n) degree is the footnote's asymptotic optimality",
		"the full mesh pays α·n(n-1) in links; the chain/MST pay large stretches — tulip balances both")
	return tb, nil
}

// E9Churn runs the overlay simulator: the same peer set under a selfish
// equilibrium topology versus structured overlays, with and without
// churn. Reported: lookup success, mean stretch (the latency inflation
// the paper's cost function penalizes), maintenance pings (the α side),
// and repairs.
func E9Churn(p scenario.Params) (*export.Table, error) {
	n := 24
	duration := 300.0
	if p.Quick {
		n = 12
		duration = 60
	}
	r := rng.New(p.EffectiveSeed())
	space, err := metric.ClusteredRandom(r, n, 3, 0.02)
	if err != nil {
		return nil, err
	}
	inst, err := core.NewInstance(space, 0.5)
	if err != nil {
		return nil, err
	}
	ev := core.NewEvaluator(inst)

	// Selfish topology: local-search best-response dynamics to a stable
	// state from an empty start.
	selfishRes, err := dynamics.Run(ev, core.NewProfile(n), dynamics.Config{
		Oracle:   &bestresponse.LocalSearch{},
		Policy:   &dynamics.RoundRobin{},
		MaxSteps: 3000,
		Rand:     r.Split(),
	})
	if err != nil {
		return nil, err
	}
	tulip, err := opt.Tulip(inst)
	if err != nil {
		return nil, err
	}
	topologies := []struct {
		name string
		prof core.Profile
	}{
		{"selfish-eq", selfishRes.Final},
		{"tulip", tulip},
		{"chain", opt.Chain(n)},
	}
	tb := &export.Table{
		Title:   "E9: overlay simulation — lookup stretch vs maintenance under churn",
		Headers: []string{"topology", "links", "churn", "repair", "lookups", "fail%", "mean-stretch", "p-ings", "repairs"},
	}
	for _, topo := range topologies {
		for _, churn := range []float64{0, 0.02} {
			repairs := []overlay.RepairStrategy{overlay.RepairNone}
			if churn > 0 {
				repairs = []overlay.RepairStrategy{overlay.RepairNone, overlay.RepairSelfish, overlay.RepairNearest}
			}
			for _, rep := range repairs {
				sim, err := overlay.New(overlay.Config{
					Instance:     inst,
					Topology:     topo.prof,
					Duration:     duration,
					LookupRate:   1,
					ZipfExponent: 0.8,
					PingInterval: 5,
					ChurnRate:    churn,
					Repair:       rep,
					Seed:         p.EffectiveSeed() + 99,
				})
				if err != nil {
					return nil, err
				}
				m, err := sim.Run()
				if err != nil {
					return nil, err
				}
				failPct := 0.0
				if m.Lookups > 0 {
					failPct = 100 * float64(m.Failed) / float64(m.Lookups)
				}
				tb.AddRow(
					topo.name, export.Int(topo.prof.LinkCount()),
					export.Num(churn), repairName(rep),
					export.Int(m.Lookups), export.Num(failPct),
					export.Num(m.Stretch.Mean()),
					export.Int(m.PingMessages), export.Int(m.Repairs),
				)
			}
		}
	}
	tb.Notes = append(tb.Notes,
		"the selfish equilibrium trades links (ping traffic) against stretch exactly as c_i = α|s_i| + Σ stretch predicts",
		"under churn, repairing (selfish or protocol) recovers reachability at the cost of repair work")
	return tb, nil
}

func repairName(r overlay.RepairStrategy) string {
	switch r {
	case overlay.RepairNone:
		return "none"
	case overlay.RepairSelfish:
		return "selfish"
	case overlay.RepairNearest:
		return "nearest"
	default:
		return fmt.Sprintf("repair(%d)", int(r))
	}
}

// E10Baselines compares, on one peer set, the equilibria of the paper's
// stretch game, the Fabrikant et al. distance game, and a bilateral
// pairwise-stable configuration: social cost, link count and max
// stretch. It shows how the stretch objective preserves locality while
// the hop-count objective does not.
func E10Baselines(p scenario.Params) (*export.Table, error) {
	n := 10
	alpha := 2.0
	if p.Quick {
		n = 8
	}
	r := rng.New(p.EffectiveSeed())
	space, err := metricUniform(r, n)
	if err != nil {
		return nil, err
	}

	tb := &export.Table{
		Title:   "E10: three games on the same peers — stretch (this paper), Fabrikant, bilateral",
		Headers: []string{"game", "stable-profile", "links", "C_link", "C_term", "max-stretch"},
	}

	// Paper's stretch game: exact BR dynamics to Nash.
	stretchInst, err := core.NewInstance(space, alpha)
	if err != nil {
		return nil, err
	}
	evS := core.NewEvaluator(stretchInst)
	resS, err := dynamics.Run(evS, core.NewProfile(n), dynamics.Config{
		Policy: &dynamics.RoundRobin{}, MaxSteps: 5000, Rand: r.Split(),
	})
	if err != nil {
		return nil, err
	}
	scS := evS.SocialCost(resS.Final)
	tb.AddRow("stretch (paper)", statusOf(resS), export.Int(resS.Final.LinkCount()),
		export.Num(scS.Link), export.Num(scS.Term), export.Num(evS.MaxTerm(resS.Final)))

	// Fabrikant: undirected hop-count game on the same vertex count.
	fabInst, err := baseline.NewFabrikant(n, alpha)
	if err != nil {
		return nil, err
	}
	evF := core.NewEvaluator(fabInst)
	resF, err := dynamics.Run(evF, core.NewProfile(n), dynamics.Config{
		Policy: &dynamics.RoundRobin{}, MaxSteps: 5000, Rand: r.Split(),
	})
	if err != nil {
		return nil, err
	}
	scF := evF.SocialCost(resF.Final)
	// Max stretch of the Fabrikant equilibrium measured in the metric
	// world: how badly hop-count equilibria ignore locality.
	evFm, err := core.NewInstance(space, alpha, core.WithUndirected())
	if err != nil {
		return nil, err
	}
	tb.AddRow("fabrikant (hops)", statusOf(resF), export.Int(resF.Final.LinkCount()),
		export.Num(scF.Link), export.Num(scF.Term),
		export.Num(core.NewEvaluator(evFm).MaxTerm(resF.Final)))

	// Bilateral: symmetric chain checked for pairwise stability, else
	// repaired by adding mutually beneficial edges greedily.
	bilInst, err := baseline.NewBilateral(space, alpha)
	if err != nil {
		return nil, err
	}
	evB := core.NewEvaluator(bilInst)
	prof := opt.Chain(n)
	for iter := 0; iter < 50; iter++ {
		rep, err := baseline.PairwiseStable(evB, prof, 0)
		if err != nil {
			return nil, err
		}
		if rep.Stable {
			break
		}
		changed := false
		if len(rep.AddViolations) > 0 {
			e := rep.AddViolations[0]
			_ = prof.AddLink(e[0], e[1])
			_ = prof.AddLink(e[1], e[0])
			changed = true
		} else if len(rep.DropViolations) > 0 {
			e := rep.DropViolations[0]
			_ = prof.RemoveLink(e[0], e[1])
			_ = prof.RemoveLink(e[1], e[0])
			changed = true
		}
		if !changed {
			break
		}
	}
	repB, err := baseline.PairwiseStable(evB, prof, 0)
	if err != nil {
		return nil, err
	}
	scB := evB.SocialCost(prof)
	status := "pairwise-stable"
	if !repB.Stable {
		status = "not-stabilized"
	}
	// Stretch view of the bilateral outcome.
	stretchView := core.NewEvaluator(stretchInst)
	tb.AddRow("bilateral (corbo-parkes)", status, export.Int(prof.LinkCount()),
		export.Num(scB.Link), export.Num(scB.Term), export.Num(stretchView.MaxTerm(prof)))

	tb.Notes = append(tb.Notes,
		"the stretch game's equilibria keep max stretch ≤ α+1 (Theorem 4.1); hop-count equilibria can have unbounded metric stretch",
		"link counts differ: bilateral edges are paid twice, so stable graphs are sparser")
	return tb, nil
}

func statusOf(res dynamics.Result) string {
	if res.Converged {
		return "nash"
	}
	return "not-converged"
}
