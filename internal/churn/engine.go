// Package churn is a seeded, deterministic join/leave event-stream
// engine for the topology game, built on the incremental evaluator: a
// peer departure is a batch of strategy deltas (the leaver drops its
// links, every online owner drops its link to the leaver) and a join is
// a row coming back to life (the joiner replays its remembered links,
// owners replay theirs), all applied through core.DynEval — so a churn
// step costs a dirty region of the distance matrix, not a fresh
// recomputation, while staying bit-identical to one.
//
// The engine keeps two profiles over a fixed peer universe:
//
//   - stored: every peer's neighbor memory, including links to peers
//     that are currently offline (a peer does not forget a neighbor
//     just because it left);
//   - live: the playable overlay, maintained inside the DynEval. The
//     invariant live = stored ∩ online holds after every event —
//     offline peers own no live links and receive none.
//
// Repairs and stabilization are best responses in the subgame induced
// on the online peers (core's masked evaluation, see core/active.go):
// in the directed batched regime the exact fused search
// (DeviationBatch.ExactSearch under the online mask), otherwise a
// masked add/drop/swap hill climb. A repair rewrites the peer's stored
// memory, which is how the overlay simulator's selfish repair becomes a
// real best response instead of a heuristic against a snapshot.
package churn

import (
	"errors"
	"fmt"
	"math"

	"selfishnet/internal/bestresponse"
	"selfishnet/internal/core"
)

// RepairKind selects how a peer rebuilds its neighbor set after churn.
type RepairKind int

// Repair kinds.
const (
	// RepairNone leaves stored links alone; the live overlay only loses
	// and regains links as peers toggle.
	RepairNone RepairKind = iota + 1
	// RepairNearest relinks the repairing peer to its two nearest
	// online peers — the structured, protocol-driven repair.
	RepairNearest
	// RepairSelfish replays the game: the repairing peer adopts a best
	// response in the subgame induced on the online peers (exact in the
	// directed batched regime, masked local search otherwise).
	RepairSelfish
)

// String names the repair kind as used in scenario specs.
func (k RepairKind) String() string {
	switch k {
	case RepairNone:
		return "none"
	case RepairNearest:
		return "nearest"
	case RepairSelfish:
		return "selfish"
	default:
		return fmt.Sprintf("RepairKind(%d)", int(k))
	}
}

// ParseRepairKind maps a scenario-spec name to a RepairKind.
func ParseRepairKind(name string) (RepairKind, error) {
	switch name {
	case "none":
		return RepairNone, nil
	case "nearest":
		return RepairNearest, nil
	case "selfish":
		return RepairSelfish, nil
	default:
		return 0, fmt.Errorf("churn: unknown repair kind %q (want none, nearest or selfish)", name)
	}
}

// DefaultSearchBudget bounds the exact masked search per best
// response (candidates resolved, bulk-pruned ones included). Exact
// search degrades to exponential when the cardinality bound is loose —
// mid-churn profiles at large n can do that — so the engine falls back
// to the masked hill climb past the budget instead of hanging.
const DefaultSearchBudget = 1 << 16

// Engine is the event-stream engine. Create with NewEngine; drive it
// with Leave, Join, Repair and Stabilize. Like the evaluator it wraps,
// an Engine is not safe for concurrent use.
type Engine struct {
	inst   *core.Instance
	ev     *core.Evaluator
	dy     *core.DynEval
	stored core.Profile
	online []bool
	count  int
}

// NewEngine builds the engine with every peer online and live = stored.
// The stored profile is cloned, not retained.
func NewEngine(ev *core.Evaluator, stored core.Profile) (*Engine, error) {
	if ev == nil {
		return nil, errors.New("churn: nil evaluator")
	}
	inst := ev.Instance()
	n := inst.N()
	if stored.N() != n {
		return nil, fmt.Errorf("churn: profile has %d peers, instance has %d", stored.N(), n)
	}
	dy, err := core.NewDynEval(ev, stored)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		inst:   inst,
		ev:     ev,
		dy:     dy,
		stored: stored.Clone(),
		online: make([]bool, n),
		count:  n,
	}
	for i := range e.online {
		e.online[i] = true
	}
	return e, nil
}

// Close releases the engine's incremental state (detaches the DynEval
// from the evaluator).
func (e *Engine) Close() { e.dy.Close() }

// N returns the size of the peer universe.
func (e *Engine) N() int { return e.inst.N() }

// Online reports whether peer v is currently online.
func (e *Engine) Online(v int) bool { return e.online[v] }

// NumOnline returns the number of online peers.
func (e *Engine) NumOnline() int { return e.count }

// Live returns the current live profile (live = stored ∩ online). The
// value shares storage with the engine; do not mutate it.
func (e *Engine) Live() core.Profile { return e.dy.Profile() }

// Stored returns the peers' neighbor memory, including links to
// offline peers. The value shares storage; do not mutate it.
func (e *Engine) Stored() core.Profile { return e.stored }

// PeerEval returns peer v's enriched cost in the online subgame, O(n)
// from the maintained distance row.
func (e *Engine) PeerEval(v int) core.Eval {
	return e.dy.PeerEvalActive(v, e.online)
}

// Distances returns peer v's maintained SSSP row over the live
// overlay — no recomputation. The slice is engine-owned; do not mutate
// it, and do not hold it across events.
func (e *Engine) Distances(v int) []float64 { return e.dy.Row(v) }

// SocialKey sums Key (link cost plus finite term) over the online
// peers — the masked social cost used for the overshoot measure.
// Unreachable online pairs are tallied separately by Disconnected.
func (e *Engine) SocialKey() float64 {
	total := 0.0
	for v := range e.online {
		if e.online[v] {
			total += e.PeerEval(v).Key()
		}
	}
	return total
}

// Disconnected reports whether any online peer cannot reach some other
// online peer over the live overlay.
func (e *Engine) Disconnected() bool {
	for v := range e.online {
		if e.online[v] && e.PeerEval(v).Unreachable > 0 {
			return true
		}
	}
	return false
}

// Leave takes peer v offline: v's live links are dropped and every
// online owner of a live link to v drops it, each as one incremental
// strategy delta. Stored memory is untouched — peers remember their
// neighbors. It returns the online peers that lost a live link (the
// candidates for repair), in ascending order.
func (e *Engine) Leave(v int) ([]int, error) {
	if v < 0 || v >= e.N() {
		return nil, fmt.Errorf("churn: peer %d out of range [0,%d)", v, e.N())
	}
	if !e.online[v] {
		return nil, fmt.Errorf("churn: peer %d is already offline", v)
	}
	live := e.dy.Profile()
	var affected []int
	for u := 0; u < e.N(); u++ {
		if u != v && e.online[u] && live.Strategy(u).Contains(v) {
			affected = append(affected, u)
		}
	}
	e.online[v] = false
	e.count--
	if err := e.dy.Apply(v, core.Strategy{}); err != nil {
		return nil, err
	}
	for _, u := range affected {
		s := e.dy.Profile().Strategy(u).Clone()
		s.Remove(v)
		if err := e.dy.Apply(u, s); err != nil {
			return nil, err
		}
	}
	return affected, nil
}

// Join brings peer v back online: v replays its stored links that
// point at online peers, and every online peer whose stored memory
// contains v relinks to it — the row coming back to life, applied as
// incremental deltas. It returns the online peers that regained a link
// to v, in ascending order.
func (e *Engine) Join(v int) ([]int, error) {
	if v < 0 || v >= e.N() {
		return nil, fmt.Errorf("churn: peer %d out of range [0,%d)", v, e.N())
	}
	if e.online[v] {
		return nil, fmt.Errorf("churn: peer %d is already online", v)
	}
	e.online[v] = true
	e.count++
	s := e.stored.Strategy(v).Clone()
	for j := 0; j < e.N(); j++ {
		if !e.online[j] {
			s.Remove(j)
		}
	}
	if err := e.dy.Apply(v, s); err != nil {
		return nil, err
	}
	var affected []int
	for u := 0; u < e.N(); u++ {
		if u != v && e.online[u] && e.stored.Strategy(u).Contains(v) {
			su := e.dy.Profile().Strategy(u).Clone()
			su.Add(v)
			if err := e.dy.Apply(u, su); err != nil {
				return nil, err
			}
			affected = append(affected, u)
		}
	}
	return affected, nil
}

// BestResponseActive computes peer v's best response in the subgame
// induced on the online peers: the exact fused search in the directed
// batched regime (directed, congestion-free, n ≤ 2048), a masked
// add/drop/swap hill climb otherwise or when the exact search exceeds
// DefaultSearchBudget (still deterministic, no longer globally
// optimal). Undirected games keep the hill climb, on the batch's
// move base. The returned strategy links to online peers only.
func (e *Engine) BestResponseActive(v int) (core.Strategy, core.Eval, error) {
	if !e.online[v] {
		return core.Strategy{}, core.Eval{}, fmt.Errorf("churn: peer %d is offline", v)
	}
	live := e.dy.Profile()
	var moves *bestresponse.MoveScorer
	if b := e.ev.NewDeviationBatch(live, v); b != nil {
		if !e.inst.Undirected() {
			out := b.ExactSearch(live.Strategy(v), e.online, bestresponse.TermLowerBound(e.inst, v, e.online), bestresponse.Tolerance, DefaultSearchBudget)
			if !out.OverBudget {
				return out.Strategy, out.Eval, nil
			}
		}
		// Undirected, or over budget: hill-climb on the batch's move
		// base, which scores each add, drop or swap in O(n).
		moves = bestresponse.BatchMoves(b, e.online)
	} else {
		moves = bestresponse.ScoredMoves(func(s core.Strategy) core.Eval { return e.ev.DeviationEvalActive(live, v, s, e.online) })
	}
	// The fallback is bestresponse.LocalSearch's add/drop/swap climb,
	// with candidates restricted to online peers and every score masked
	// to the online subgame.
	res := bestresponse.HillClimb(e.N(), v, live.Strategy(v), moves, e.online, 0)
	return res.Strategy, res.Eval, nil
}

// adopt installs strategy s as peer v's new play: stored memory is
// rewritten (the peer deliberately chose these neighbors) and the live
// overlay updated incrementally. s must link to online peers only.
func (e *Engine) adopt(v int, s core.Strategy) error {
	if err := e.stored.SetStrategy(v, s); err != nil {
		return err
	}
	return e.dy.Apply(v, s)
}

// Repair rebuilds peer v's neighbor set per the given kind, rewriting
// its stored memory. It reports whether the strategy changed.
func (e *Engine) Repair(v int, kind RepairKind) (bool, error) {
	if !e.online[v] {
		return false, nil
	}
	switch kind {
	case RepairNone:
		return false, nil
	case RepairNearest:
		s := e.nearestStrategy(v)
		// Compare against stored memory, not the live view: the repair
		// rewrites memory, so a live match with stale offline links in
		// stored is still a change.
		if s.Equal(e.stored.Strategy(v)) {
			return false, nil
		}
		return true, e.adopt(v, s)
	case RepairSelfish:
		s, res, err := e.BestResponseActive(v)
		if err != nil {
			return false, err
		}
		if !res.Better(e.PeerEval(v), bestresponse.Tolerance) {
			return false, nil
		}
		return true, e.adopt(v, s)
	default:
		return false, fmt.Errorf("churn: unknown repair kind %d", int(kind))
	}
}

// nearestStrategy links v to its two nearest online peers (ties broken
// by index), mirroring the overlay simulator's structured repair.
func (e *Engine) nearestStrategy(v int) core.Strategy {
	s := core.Strategy{}
	for picked := 0; picked < 2; picked++ {
		best := -1
		for j := 0; j < e.N(); j++ {
			if j == v || !e.online[j] || s.Contains(j) {
				continue
			}
			if best == -1 || e.inst.Distance(v, j) < e.inst.Distance(v, best) {
				best = j
			}
		}
		if best == -1 {
			break
		}
		s.Add(best)
	}
	return s
}

// Stabilize runs round-robin best-response dynamics over the online
// peers until a full pass makes no move (converged), the move budget
// is exhausted, or a live profile repeats across passes (best-response
// dynamics can cycle in this game; a repeat means it will never
// converge, so the budget is not worth burning). maxMoves ≤ 0 means
// 2n²+n, enough for any practical run of strictly improving moves.
// Every adopted move rewrites stored memory, like a repair.
func (e *Engine) Stabilize(maxMoves int) (moves int, converged bool, err error) {
	n := e.N()
	if maxMoves <= 0 {
		maxMoves = 2*n*n + n
	}
	seen := map[uint64]bool{e.dy.Profile().Hash(): true}
	for {
		anyMove := false
		for v := 0; v < n; v++ {
			if !e.online[v] {
				continue
			}
			s, res, err := e.BestResponseActive(v)
			if err != nil {
				return moves, false, err
			}
			if !res.Better(e.PeerEval(v), bestresponse.Tolerance) {
				continue
			}
			if moves >= maxMoves {
				return moves, false, nil
			}
			if err := e.adopt(v, s); err != nil {
				return moves, false, err
			}
			moves++
			anyMove = true
		}
		if !anyMove {
			return moves, true, nil
		}
		if h := e.dy.Profile().Hash(); seen[h] {
			return moves, false, nil
		} else {
			seen[h] = true
		}
	}
}

// CheckAgainstFresh compares every maintained distance row and masked
// peer eval against a from-scratch evaluation of the live profile on a
// fresh evaluator — the differential invariant behind the whole
// engine. Any deviation (bit-for-bit, no tolerance) is an error.
func (e *Engine) CheckAgainstFresh(fresh *core.Evaluator) error {
	live := e.dy.Profile()
	n := e.N()
	for src := 0; src < n; src++ {
		want, err := fresh.Distances(live, src)
		if err != nil {
			return err
		}
		got := e.dy.Row(src)
		for j := 0; j < n; j++ {
			if got[j] != want[j] && !(math.IsInf(got[j], 1) && math.IsInf(want[j], 1)) {
				return fmt.Errorf("churn: row %d drifted at %d: incremental %v, fresh %v",
					src, j, got[j], want[j])
			}
		}
		if ge, we := e.PeerEval(src), fresh.PeerEvalActive(live, src, e.online); ge != we {
			return fmt.Errorf("churn: masked eval of %d drifted: incremental %+v, fresh %+v", src, ge, we)
		}
	}
	return nil
}
