package experiments

import (
	"errors"
	"fmt"

	"selfishnet/internal/construct"
	"selfishnet/internal/core"
	"selfishnet/internal/dynamics"
	"selfishnet/internal/export"
	"selfishnet/internal/rng"
	"selfishnet/internal/scenario"
)

// E5NoNash reproduces Theorem 5.1. For k = 1 it enumerates the entire
// profile space (2^20 profiles) and reports the machine-checked
// certificate that no pure Nash equilibrium exists. For k = 1..3 it runs
// deterministic best-response dynamics from the six Figure 3 candidates
// and from random profiles, reporting that every run ends in a proven
// cycle rather than convergence.
func E5NoNash(p scenario.Params) (*export.Table, error) {
	ks := []int{1, 2, 3}
	randomStarts := 6
	certify := true
	if p.Quick {
		ks = []int{1}
		randomStarts = 2
		certify = false
	}
	tb := &export.Table{
		Title:   "E5 (Theorem 5.1): the instance I_k has no pure Nash equilibrium",
		Headers: []string{"k", "n", "alpha", "runs", "converged", "cycles-proven", "mean-cycle-len", "exhaustive-certificate"},
	}
	for _, k := range ks {
		ik, err := construct.NewIk(k, construct.DefaultIkParams())
		if err != nil {
			return nil, err
		}
		ev := core.NewEvaluator(ik.Instance)
		runs, converged, cycles, cycleLenSum := 0, 0, 0, 0
		for _, c := range construct.Candidates() {
			res, err := ik.Oscillate(c, 600)
			if err != nil {
				return nil, err
			}
			runs++
			if res.Converged {
				converged++
			}
			if res.CycleDetected && res.CycleProven {
				cycles++
				cycleLenSum += res.CycleLength
			}
		}
		r := rng.New(p.EffectiveSeed() + uint64(k))
		for t := 0; t < randomStarts; t++ {
			start := dynamics.RandomProfile(r, ik.Instance.N(), r.Range(0.1, 0.5))
			res, err := dynamics.Run(ev, start, dynamics.Config{
				Policy:       dynamics.MaxGain{},
				MaxSteps:     600,
				DetectCycles: true,
			})
			if err != nil {
				return nil, err
			}
			runs++
			if res.Converged {
				converged++
			}
			if res.CycleDetected && res.CycleProven {
				cycles++
				cycleLenSum += res.CycleLength
			}
		}
		cert := "n/a (space too large)"
		if k == 1 {
			if certify {
				cerr := ik.CertifyNoNash(1 << 21)
				switch {
				case cerr == nil:
					cert = "NO PURE NASH (all 2^20 profiles checked)"
				case errors.Is(cerr, construct.ErrNashExists):
					cert = "FAILED: " + cerr.Error()
				default:
					return nil, cerr
				}
			} else {
				cert = "skipped (quick mode)"
			}
		}
		meanCycle := 0.0
		if cycles > 0 {
			meanCycle = float64(cycleLenSum) / float64(cycles)
		}
		tb.AddRow(
			export.Int(k), export.Int(ik.Instance.N()), export.Num(ik.Instance.Alpha()),
			export.Int(runs), export.Int(converged), export.Int(cycles),
			export.Num(meanCycle), cert,
		)
	}
	tb.Notes = append(tb.Notes,
		"converged must be 0: by Theorem 5.1 dynamics on I_k never stabilize",
		"cycles are proven: deterministic max-gain dynamics revisited an exact (profile, scheduler) state",
		"the k=1 certificate enumerates every strategy profile and finds no equilibrium")
	return tb, nil
}

// E6CandidateCycle reproduces Figure 3: for each of the six candidate
// configurations (with every peer outside the two bottom leads settled
// to an exact best response), it reports the best bottom-cluster
// deviation and the successor candidate, recovering the paper's
// transition structure 1→3→4→2→1 with 5 and 6 feeding into the loop.
func E6CandidateCycle(p scenario.Params) (*export.Table, error) {
	ks := []int{1, 2}
	if p.Quick {
		ks = []int{1}
	}
	want := map[int]int{1: 3, 2: 1, 3: 4, 4: 2, 5: 3, 6: 2}
	tb := &export.Table{
		Title:   "E6 (Figure 3): candidate configurations and their best-response transitions",
		Headers: []string{"k", "candidate", "mover", "gain", "successor", "paper-says", "match"},
	}
	for _, k := range ks {
		ik, err := construct.NewIk(k, construct.DefaultIkParams())
		if err != nil {
			return nil, err
		}
		trs, err := ik.AnalyzeAllSettled(60)
		if err != nil {
			return nil, err
		}
		for _, tr := range trs {
			mover, successor, match := "-", "-", "-"
			gain := 0.0
			switch {
			case !tr.SettleOK:
				mover = "(tops did not settle)"
			case tr.Stable:
				mover = "(stable: would contradict Thm 5.1)"
			default:
				mover = tr.PeerCluster.String()
				gain = tr.Gain
				if tr.ToOK {
					successor = export.Int(tr.To.ID)
					match = fmt.Sprintf("%v", tr.To.ID == want[tr.From.ID])
				} else {
					successor = "outside candidate set"
					match = "false"
				}
			}
			tb.AddRow(
				export.Int(k), tr.From.String(), mover, export.Num(gain),
				successor, export.Int(want[tr.From.ID]), match,
			)
		}
	}
	tb.Notes = append(tb.Notes,
		"paper cycle: 1→3→4→2→1 repeats forever; candidates 5 and 6 enter the cycle via 3 and 2",
		"k=1 matches the paper's map exactly; larger k still cycles but may pick a different improving mover first (the theorem only needs existence)")
	return tb, nil
}

// E8Convergence contrasts Section 5 with benign instances: on random
// 2-D metrics best-response dynamics converge quickly under every
// activation policy, while I_k never does. The table reports convergence
// rates, steps, and distinct equilibria reached.
func E8Convergence(p scenario.Params) (*export.Table, error) {
	alphas := []float64{1, 4, 16}
	runs := 12
	n := 10
	if p.Quick {
		alphas = []float64{4}
		runs = 4
		n = 8
	}
	policies := []dynamics.Policy{&dynamics.RoundRobin{}, dynamics.MaxGain{}, dynamics.RandomImproving{}}
	tb := &export.Table{
		Title:   "E8: best-response dynamics on random 2-D instances (contrast with I_k)",
		Headers: []string{"n", "alpha", "policy", "runs", "converged", "mean-steps", "max-steps", "distinct-equilibria"},
	}
	for _, alpha := range alphas {
		for _, pol := range policies {
			r := rng.New(p.EffectiveSeed() + uint64(alpha*7))
			space, err := metricUniform(r, n)
			if err != nil {
				return nil, err
			}
			inst, err := core.NewInstance(space, alpha)
			if err != nil {
				return nil, err
			}
			ev := core.NewEvaluator(inst)
			// The replica fan-out width is the budget RunAll allotted
			// this runner (1 when many runners already run concurrently,
			// the full -par width when this experiment runs alone); the
			// stats are identical at every width.
			stats, err := dynamics.Converge(ev, dynamics.Config{
				Policy:      pol,
				MaxSteps:    5000,
				Parallelism: p.Parallelism,
			}, runs, 0.3, r)
			if err != nil {
				return nil, err
			}
			tb.AddRow(
				export.Int(n), export.Num(alpha), pol.Name(),
				export.Int(stats.Runs), export.Int(stats.Converged),
				export.Num(stats.MeanSteps), export.Int(stats.MaxSteps),
				export.Int(stats.DistinctFinal),
			)
		}
	}
	tb.Notes = append(tb.Notes,
		"random Euclidean instances converge in practice for every policy — the non-convergence of Theorem 5.1 needs engineered geometry",
		"multiple distinct equilibria per instance motivate the worst-case (Price of Anarchy) analysis")
	return tb, nil
}
