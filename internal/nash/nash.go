// Package nash verifies equilibrium properties of strategy profiles: a
// profile is a (pure) Nash equilibrium when no peer can strictly reduce
// its cost by unilaterally changing its link set.
//
// Verification strength depends on the oracle: with bestresponse.Exact
// the verdict is exact; with heuristic oracles a "stable" verdict only
// certifies stability against the oracle's move set (add/drop/swap for
// local search), which the Report records.
package nash

import (
	"errors"
	"fmt"

	"selfishnet/internal/bestresponse"
	"selfishnet/internal/core"
)

// PeerReport describes the best deviation found for one peer.
type PeerReport struct {
	Peer int
	// Gain is the cost reduction of the best deviation found (+Inf if
	// it restores reachability). Gains ≤ tolerance mean no improvement.
	Gain float64
	// Deviation is the best strategy found for the peer.
	Deviation core.Strategy
	// DeviationEval is the enriched cost of that strategy.
	DeviationEval core.Eval
	// CurrentEval is the enriched cost of the peer's current strategy.
	CurrentEval core.Eval
}

// Report is the outcome of an equilibrium check.
type Report struct {
	// Stable is true when no peer improves by more than the tolerance
	// under the oracle used. With an exact oracle this is the Nash
	// property; with heuristics it is oracle-stability.
	Stable bool
	// Exact records whether the verdict came from an exact oracle.
	Exact bool
	// Oracle is the name of the oracle used.
	Oracle string
	// Peers holds one entry per peer, in index order.
	Peers []PeerReport
	// MaxGain is the largest gain over all peers.
	MaxGain float64
}

// Epsilon returns the additive ε for which the profile is an ε-Nash
// equilibrium under the oracle used: the largest finite gain (0 if
// stable). Returns +Inf when a peer can restore reachability.
func (r Report) Epsilon() float64 {
	if r.MaxGain <= 0 {
		return 0
	}
	return r.MaxGain
}

// Check evaluates every peer's best deviation under the oracle. tol is
// the absolute improvement below which a deviation does not count
// (bestresponse.Tolerance is the conventional choice).
func Check(ev *core.Evaluator, p core.Profile, oracle bestresponse.Oracle, tol float64) (Report, error) {
	if oracle == nil {
		return Report{}, errors.New("nash: nil oracle")
	}
	n := ev.Instance().N()
	if p.N() != n {
		return Report{}, fmt.Errorf("nash: profile has %d peers, instance has %d", p.N(), n)
	}
	_, exact := oracle.(*bestresponse.Exact)
	rep := Report{Stable: true, Exact: exact, Oracle: oracle.Name(), Peers: make([]PeerReport, 0, n)}
	for i := 0; i < n; i++ {
		gain, dev, err := bestresponse.Improvement(ev, p, i, oracle)
		if err != nil {
			return Report{}, fmt.Errorf("nash: peer %d: %w", i, err)
		}
		rep.Peers = append(rep.Peers, PeerReport{
			Peer:          i,
			Gain:          gain,
			Deviation:     dev.Strategy,
			DeviationEval: dev.Eval,
			CurrentEval:   ev.PeerEval(p, i),
		})
		if gain > rep.MaxGain {
			rep.MaxGain = gain
		}
		if gain > tol {
			rep.Stable = false
		}
	}
	return rep, nil
}

// IsNash reports whether p is an exact pure Nash equilibrium. It stops
// at the first improving peer, so negative verdicts are cheap.
func IsNash(ev *core.Evaluator, p core.Profile) (bool, error) {
	return isNashEarly(ev, p, &bestresponse.Exact{})
}

func isNashEarly(ev *core.Evaluator, p core.Profile, oracle bestresponse.Oracle) (bool, error) {
	n := ev.Instance().N()
	if p.N() != n {
		return false, fmt.Errorf("nash: profile has %d peers, instance has %d", p.N(), n)
	}
	for i := 0; i < n; i++ {
		gain, _, err := bestresponse.Improvement(ev, p, i, oracle)
		if err != nil {
			return false, fmt.Errorf("nash: peer %d: %w", i, err)
		}
		if gain > bestresponse.Tolerance {
			return false, nil
		}
	}
	return true, nil
}

// EnumerateEquilibria exhaustively enumerates the entire profile space
// and returns every exact pure Nash equilibrium. Exponential: the space
// has 2^(n(n-1)) profiles, so this is for n ≤ 5. maxProfiles guards the
// budget (0 means 2^22); a larger space fails with an error wrapping
// core.ErrSpaceTooLarge.
//
// This is the machinery behind the Theorem 5.1 experiment: running it on
// the I_k instance (k = 1) and getting an empty result is a machine
// -checked certificate that no pure Nash equilibrium exists.
func EnumerateEquilibria(ev *core.Evaluator, maxProfiles int) ([]core.Profile, error) {
	oracle := &bestresponse.Exact{}
	var equilibria []core.Profile
	var checkErr error
	err := core.EnumerateProfiles(ev.Instance().N(), maxProfiles, func(p core.Profile) bool {
		ok, err := isNashEarly(ev, p, oracle)
		if err != nil {
			checkErr = err
			return false
		}
		if ok {
			equilibria = append(equilibria, p.Clone())
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if checkErr != nil {
		return nil, checkErr
	}
	return equilibria, nil
}
