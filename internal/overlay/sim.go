package overlay

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"selfishnet/internal/churn"
	"selfishnet/internal/core"
	"selfishnet/internal/rng"
	"selfishnet/internal/stats"
)

// RepairStrategy says how a peer rebuilds its neighbor set after churn
// invalidates it.
type RepairStrategy int

// Repair strategies.
const (
	// RepairNone leaves dead links in place (they are simply unusable).
	RepairNone RepairStrategy = iota + 1
	// RepairSelfish replays the game: the affected peer adopts a best
	// response in the subgame induced on the online peers.
	RepairSelfish
	// RepairNearest relinks to the nearest alive peers, a simple
	// protocol-driven structured repair.
	RepairNearest
)

// repairKind maps the simulator's repair policy onto the churn
// engine's.
func (r RepairStrategy) repairKind() churn.RepairKind {
	switch r {
	case RepairSelfish:
		return churn.RepairSelfish
	case RepairNearest:
		return churn.RepairNearest
	default:
		return churn.RepairNone
	}
}

// Config parameterizes a simulation run.
type Config struct {
	// Instance supplies the metric, α and cost model. Lookup latency is
	// measured over the overlay with metric arc weights.
	Instance *core.Instance
	// Topology is the starting overlay (e.g. an equilibrium from the
	// game, or a structured construction).
	Topology core.Profile
	// Duration is the simulated time horizon (seconds).
	Duration float64
	// LookupRate is each peer's lookup arrival rate (lookups/second,
	// exponential inter-arrival). Targets are Zipf-distributed.
	LookupRate float64
	// ZipfExponent skews lookup targets (0 = uniform).
	ZipfExponent float64
	// PingInterval is the per-link maintenance period (seconds); every
	// interval each peer pings each neighbor once. Zero disables pings.
	PingInterval float64
	// ChurnRate is each peer's toggle rate (events/second, exponential):
	// an online peer goes offline and vice versa. Zero disables churn.
	ChurnRate float64
	// Repair selects the repair strategy (default RepairNone).
	Repair RepairStrategy
	// Seed drives all randomness.
	Seed uint64
}

// Metrics aggregates the observable outcomes of a run.
type Metrics struct {
	// Lookups counts issued lookups; Failed counts lookups whose target
	// was offline or unreachable.
	Lookups int
	Failed  int
	// Latency aggregates successful lookup latencies (overlay route
	// length in metric units).
	Latency stats.Stream
	// Stretch aggregates successful lookups' latency / direct distance.
	Stretch stats.Stream
	// PingMessages counts maintenance pings sent.
	PingMessages int
	// ChurnEvents counts join/leave transitions.
	ChurnEvents int
	// Repairs counts repair actions taken.
	Repairs int
	// FinalAlive is the number of online peers at the end.
	FinalAlive int
}

// Sim is a discrete-event overlay simulator. Create with New, run with
// Run. Liveness, the live overlay and its distance rows live in a
// churn.Engine: a churn event is a batch of incremental strategy deltas
// (core.DynEval), lookups route over maintained SSSP rows instead of a
// fresh computation per lookup, and selfish repairs are real masked
// best responses in the online subgame.
type Sim struct {
	cfg  Config
	eng  *churn.Engine
	r    *rng.RNG
	zipf *rng.Zipf

	queue eventQueue
	seq   uint64
	now   float64

	metrics Metrics
}

// New validates the configuration and prepares a simulator.
func New(cfg Config) (*Sim, error) {
	if cfg.Instance == nil {
		return nil, errors.New("overlay: nil instance")
	}
	n := cfg.Instance.N()
	if cfg.Topology.N() != n {
		return nil, fmt.Errorf("overlay: topology has %d peers, instance has %d", cfg.Topology.N(), n)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("overlay: duration %v must be positive", cfg.Duration)
	}
	if cfg.LookupRate < 0 || cfg.ChurnRate < 0 || cfg.PingInterval < 0 {
		return nil, errors.New("overlay: negative rates are invalid")
	}
	if cfg.Repair == 0 {
		cfg.Repair = RepairNone
	}
	eng, err := churn.NewEngine(core.NewEvaluator(cfg.Instance), cfg.Topology)
	if err != nil {
		return nil, err
	}
	return &Sim{
		cfg:  cfg,
		eng:  eng,
		r:    rng.New(cfg.Seed),
		zipf: rng.NewZipf(n, cfg.ZipfExponent),
	}, nil
}

// Run executes the simulation to the configured horizon and returns the
// collected metrics.
func (s *Sim) Run() (Metrics, error) {
	n := s.cfg.Instance.N()
	// Seed initial events.
	if s.cfg.LookupRate > 0 {
		for i := 0; i < n; i++ {
			s.schedule(s.r.Exp(s.cfg.LookupRate), evLookup, i)
		}
	}
	if s.cfg.PingInterval > 0 {
		for i := 0; i < n; i++ {
			s.schedule(s.cfg.PingInterval, evPing, i)
		}
	}
	if s.cfg.ChurnRate > 0 {
		for i := 0; i < n; i++ {
			s.schedule(s.r.Exp(s.cfg.ChurnRate), evChurn, i)
		}
	}

	for s.queue.Len() > 0 {
		e := s.queue[0]
		if e.at > s.cfg.Duration {
			break
		}
		heap.Pop(&s.queue)
		s.now = e.at
		switch e.kind {
		case evLookup:
			s.handleLookup(e.peer)
			s.schedule(s.now+s.r.Exp(s.cfg.LookupRate), evLookup, e.peer)
		case evPing:
			s.handlePing(e.peer)
			s.schedule(s.now+s.cfg.PingInterval, evPing, e.peer)
		case evChurn:
			if err := s.handleChurn(e.peer); err != nil {
				return Metrics{}, err
			}
			s.schedule(s.now+s.r.Exp(s.cfg.ChurnRate), evChurn, e.peer)
		case evRepair:
			if err := s.handleRepair(e.peer); err != nil {
				return Metrics{}, err
			}
		}
	}
	s.metrics.FinalAlive = s.eng.NumOnline()
	return s.metrics, nil
}

// handleLookup routes one lookup from the peer to a Zipf-chosen target,
// reading the engine's maintained distance row — no per-lookup SSSP.
func (s *Sim) handleLookup(src int) {
	if !s.eng.Online(src) {
		return
	}
	target := s.zipf.Sample(s.r)
	if target == src {
		return
	}
	s.metrics.Lookups++
	if !s.eng.Online(target) {
		s.metrics.Failed++
		return
	}
	d := s.eng.Distances(src)[target]
	if math.IsInf(d, 1) {
		s.metrics.Failed++
		return
	}
	s.metrics.Latency.Add(d)
	s.metrics.Stretch.Add(d / s.cfg.Instance.Distance(src, target))
}

// handlePing counts one maintenance round for the peer: one ping per
// stored neighbor (alive or not; discovering death is the point).
func (s *Sim) handlePing(peer int) {
	if !s.eng.Online(peer) {
		return
	}
	s.metrics.PingMessages += s.eng.Stored().OutDegree(peer)
}

// handleChurn toggles the peer through the engine and, when repair is
// enabled, schedules a repair for affected peers: the owners that lost
// a live link on a departure, the peer itself on a rejoin (its stored
// links were replayed, but some neighbors may be gone).
func (s *Sim) handleChurn(peer int) error {
	s.metrics.ChurnEvents++
	if s.eng.Online(peer) {
		affected, err := s.eng.Leave(peer)
		if err != nil {
			return err
		}
		if s.cfg.Repair != RepairNone {
			for _, u := range affected {
				s.schedule(s.now, evRepair, u)
			}
		}
		return nil
	}
	if _, err := s.eng.Join(peer); err != nil {
		return err
	}
	if s.cfg.Repair != RepairNone {
		s.schedule(s.now, evRepair, peer)
	}
	return nil
}

// handleRepair rebuilds the peer's strategy per the configured policy,
// delegated to the churn engine (masked best response for selfish,
// nearest-online relink for structured repair).
func (s *Sim) handleRepair(peer int) error {
	if !s.eng.Online(peer) {
		return nil
	}
	s.metrics.Repairs++
	_, err := s.eng.Repair(peer, s.cfg.Repair.repairKind())
	return err
}
