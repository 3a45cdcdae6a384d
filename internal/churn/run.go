package churn

import (
	"context"
	"errors"
	"fmt"

	"selfishnet/internal/core"
	"selfishnet/internal/rng"
	"selfishnet/internal/stats"
)

// Config parameterizes a churn run.
type Config struct {
	// Instance supplies the metric, α and cost model.
	Instance *core.Instance
	// Start is the initial profile (typically an equilibrium reached by
	// the static dynamics, so the run measures its survival).
	Start core.Profile
	// Rate is each peer's toggle rate (events/second, exponential
	// inter-arrival; the aggregate event rate is Rate·n).
	Rate float64
	// Duration is the simulated time horizon (seconds).
	Duration float64
	// Repair selects the repair strategy (default RepairSelfish).
	Repair RepairKind
	// MinOnline floors the online population: a departure that would
	// drop below it is skipped (time still advances). Default max(2, n/4).
	MinOnline int
	// RepairSteps bounds best-response moves per restabilization pass
	// after each event (≤ 0 means the engine default).
	RepairSteps int
	// TailSteps bounds the tail stabilization after everyone rejoins
	// (≤ 0 means the engine default).
	TailSteps int
	// Seed drives all randomness. Must be nonzero.
	Seed uint64
	// Workers sizes the evaluator pool for batch row settles (> 1
	// enables it). Results are byte-identical at any width.
	Workers int
}

// Result aggregates the observable outcomes of a churn run.
type Result struct {
	// Events counts executed churn events; Leaves and Joins split them.
	// SkippedLeaves counts departures vetoed by the MinOnline floor.
	Events, Leaves, Joins, SkippedLeaves int
	// Repairs counts strategy rewrites taken by event-triggered repairs
	// (stabilization moves are counted in Restabilize instead).
	Repairs int
	// Restabilize aggregates, per event, the best-response moves needed
	// until the online subgame was stable again — the time-to-
	// restabilize measure.
	Restabilize stats.Stream
	// Overshoot aggregates, per event, the masked social cost right
	// after the event divided by the cost once restabilized — how far
	// the system overshoots its post-repair cost during churn. Events
	// with a disconnected online subgame are excluded (counted below).
	Overshoot stats.Stream
	// Disconnected counts events whose online subgame was still
	// disconnected after restabilization.
	Disconnected int
	// Unstable counts events where restabilization hit its move budget
	// before converging.
	Unstable int
	// TailMoves and TailStable describe the rate→0 tail: every offline
	// peer rejoins and the full game is stabilized. TailStable is true
	// when the tail converged — under the exact oracle (directed
	// batched regime) that certifies the final profile is a pure Nash
	// equilibrium, i.e. an equilibrium is reachable as a stable state
	// under this churn.
	TailMoves  int
	TailStable bool
	// Final is the final full profile after the tail.
	Final core.Profile
	// FinalCost is the social cost of the final profile.
	FinalCost core.Cost
}

// RunContext executes a churn run: a continuous-time stream of uniform
// peer toggles at aggregate rate Rate·n, each followed by event-triggered
// repairs and a restabilization pass, then the rate→0 tail (everyone
// rejoins, the full game stabilizes). Deterministic in Seed at any
// evaluator-pool width. ctx is checked before every churn event and
// before the tail stabilization, so a deadline or disconnect lands
// mid-run, and the error is ctx.Err() verbatim. The result does not
// depend on ctx unless it fires.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	if cfg.Instance == nil {
		return Result{}, errors.New("churn: nil instance")
	}
	n := cfg.Instance.N()
	if cfg.Start.N() != n {
		return Result{}, fmt.Errorf("churn: start profile has %d peers, instance has %d", cfg.Start.N(), n)
	}
	if cfg.Rate < 0 {
		return Result{}, errors.New("churn: negative rate")
	}
	if cfg.Duration <= 0 {
		return Result{}, fmt.Errorf("churn: duration %v must be positive", cfg.Duration)
	}
	if cfg.Seed == 0 {
		return Result{}, errors.New("churn: seed must be nonzero")
	}
	if cfg.Repair == 0 {
		cfg.Repair = RepairSelfish
	}
	if cfg.MinOnline <= 0 {
		cfg.MinOnline = n / 4
		if cfg.MinOnline < 2 {
			cfg.MinOnline = 2
		}
	}

	r := rng.New(cfg.Seed)
	ev := core.NewEvaluator(cfg.Instance)
	if cfg.Workers > 1 {
		ev.AttachPool(core.NewPool(cfg.Instance, cfg.Workers))
	}
	e, err := NewEngine(ev, cfg.Start)
	if err != nil {
		return Result{}, err
	}
	defer e.Close()

	var res Result
	if cfg.Rate > 0 {
		now := 0.0
		for {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
			now += r.Exp(cfg.Rate * float64(n))
			if now > cfg.Duration {
				break
			}
			v := r.Intn(n)
			var affected []int
			if e.Online(v) {
				if e.NumOnline() <= cfg.MinOnline {
					res.SkippedLeaves++
					continue
				}
				affected, err = e.Leave(v)
				if err != nil {
					return Result{}, err
				}
				res.Leaves++
			} else {
				affected, err = e.Join(v)
				if err != nil {
					return Result{}, err
				}
				// The joiner itself repairs; owners already relinked.
				affected = append(affected[:0], v)
				res.Joins++
			}
			res.Events++
			costAtEvent := e.SocialKey()
			for _, u := range affected {
				changed, err := e.Repair(u, cfg.Repair)
				if err != nil {
					return Result{}, err
				}
				if changed {
					res.Repairs++
				}
			}
			moves := 0
			converged := true
			if cfg.Repair == RepairSelfish {
				moves, converged, err = e.Stabilize(cfg.RepairSteps)
				if err != nil {
					return Result{}, err
				}
			}
			res.Restabilize.Add(float64(moves))
			if !converged {
				res.Unstable++
			}
			if e.Disconnected() {
				res.Disconnected++
			} else if settled := e.SocialKey(); settled > 0 {
				res.Overshoot.Add(costAtEvent / settled)
			}
		}
	}

	// Rate→0 tail: every offline peer rejoins, then the full game
	// stabilizes. Under the exact oracle a converged tail certifies the
	// final profile as a pure Nash equilibrium.
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	for v := 0; v < n; v++ {
		if !e.Online(v) {
			if _, err := e.Join(v); err != nil {
				return Result{}, err
			}
		}
	}
	tailMoves, tailStable, err := e.Stabilize(cfg.TailSteps)
	if err != nil {
		return Result{}, err
	}
	res.TailMoves, res.TailStable = tailMoves, tailStable
	res.Final = e.Live().Clone()
	res.FinalCost = e.dy.SocialCost()
	return res, nil
}
