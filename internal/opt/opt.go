// Package opt provides the social-optimum side of the Price of Anarchy:
// constructions a benevolent designer would use (chains, stars, meshes,
// MST-based overlays, k-nearest-neighbor graphs and a Tulip-like
// locality-aware overlay with O(√n) degree), universal lower bounds on
// the social cost, exhaustive optimization for tiny instances, and
// simulated annealing for everything else.
//
// PoA experiments report the ratio of the worst equilibrium cost to both
// an upper bound on OPT (the best construction found) and the universal
// lower bound, sandwiching the true Price of Anarchy.
package opt

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"selfishnet/internal/core"
	"selfishnet/internal/rng"
)

// FullMesh links every ordered pair: all stretches 1, maximal link cost.
func FullMesh(n int) core.Profile {
	p := core.NewProfile(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				_ = p.AddLink(i, j)
			}
		}
	}
	return p
}

// Star links every peer bidirectionally with the given center: 2(n-1)
// links, every route at most two hops via the center.
func Star(n, center int) (core.Profile, error) {
	if center < 0 || center >= n {
		return core.Profile{}, fmt.Errorf("opt: star center %d out of range [0,%d)", center, n)
	}
	p := core.NewProfile(n)
	for i := 0; i < n; i++ {
		if i != center {
			_ = p.AddLink(i, center)
			_ = p.AddLink(center, i)
		}
	}
	return p, nil
}

// Chain links consecutive indices bidirectionally: the paper's optimal
// topology G̃ when indices are sorted by line position (every stretch is
// exactly 1 on a line, with only 2(n-1) links).
func Chain(n int) core.Profile {
	p := core.NewProfile(n)
	for i := 0; i+1 < n; i++ {
		_ = p.AddLink(i, i+1)
		_ = p.AddLink(i+1, i)
	}
	return p
}

// DirectedCycle links i→i+1 (mod n): the minimum possible number of arcs
// (n) for strong connectivity.
func DirectedCycle(n int) core.Profile {
	p := core.NewProfile(n)
	for i := 0; i < n; i++ {
		_ = p.AddLink(i, (i+1)%n)
	}
	return p
}

// MSTProfile links the minimum-spanning-tree edges of the metric
// bidirectionally: 2(n-1) links, short total length.
func MSTProfile(inst *core.Instance) core.Profile {
	p := core.NewProfile(inst.N())
	for _, e := range primMST(inst) {
		_ = p.AddLink(e[0], e[1])
		_ = p.AddLink(e[1], e[0])
	}
	return p
}

// primMST returns the edges of a minimum spanning tree of the complete
// graph over the instance's metric, as (parent, child) pairs in the
// order Prim's algorithm grows the tree from peer 0. O(n²). Instances
// have n ≥ 2 and finite distances, so the tree always spans.
func primMST(inst *core.Instance) [][2]int {
	n := inst.N()
	inTree := make([]bool, n)
	best := make([]float64, n)
	parent := make([]int, n)
	for i := range best {
		best[i] = math.Inf(1)
		parent[i] = -1
	}
	best[0] = 0
	edges := make([][2]int, 0, n-1)
	for iter := 0; iter < n; iter++ {
		u, bd := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if !inTree[v] && best[v] < bd {
				u, bd = v, best[v]
			}
		}
		inTree[u] = true
		if parent[u] >= 0 {
			edges = append(edges, [2]int{parent[u], u})
		}
		for v := 0; v < n; v++ {
			if !inTree[v] {
				if d := inst.Distance(u, v); d < best[v] {
					best[v] = d
					parent[v] = u
				}
			}
		}
	}
	return edges
}

// KNearest links every peer to its k nearest neighbors (ties broken by
// index). k is clamped to n-1.
func KNearest(inst *core.Instance, k int) (core.Profile, error) {
	n := inst.N()
	if k <= 0 {
		return core.Profile{}, fmt.Errorf("opt: k = %d, want ≥ 1", k)
	}
	if k > n-1 {
		k = n - 1
	}
	p := core.NewProfile(n)
	idx := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		idx = idx[:0]
		for j := 0; j < n; j++ {
			if j != i {
				idx = append(idx, j)
			}
		}
		i := i
		sort.Slice(idx, func(a, b int) bool {
			da, db := inst.Distance(i, idx[a]), inst.Distance(i, idx[b])
			if da != db {
				return da < db
			}
			return idx[a] < idx[b]
		})
		for _, j := range idx[:k] {
			_ = p.AddLink(i, j)
		}
	}
	return p, nil
}

// Tulip builds a locality-aware overlay in the spirit of the paper's
// footnote 2 (Abraham et al.'s Tulip): peers are grouped into ≈√n
// proximity clusters (farthest-point seeding, nearest-center
// assignment); every peer links to all peers of its own cluster and to
// the center of every other cluster. Per-peer degree is O(√n) and routes
// need at most one inter-cluster hop plus one intra-cluster hop.
func Tulip(inst *core.Instance) (core.Profile, error) {
	n := inst.N()
	k := int(math.Ceil(math.Sqrt(float64(n))))
	centers, assign := proximityClusters(inst, k)
	p := core.NewProfile(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && assign[i] == assign[j] {
				_ = p.AddLink(i, j)
			}
		}
		for c, center := range centers {
			if assign[i] != c && center != i {
				_ = p.AddLink(i, center)
			}
		}
	}
	return p, nil
}

// proximityClusters picks k centers by farthest-point traversal and
// assigns every peer to its nearest center. Returns the center indices
// and the per-peer cluster assignment.
func proximityClusters(inst *core.Instance, k int) (centers []int, assign []int) {
	n := inst.N()
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	centers = make([]int, 0, k)
	centers = append(centers, 0)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = inst.Distance(i, 0)
	}
	for len(centers) < k {
		far, farD := -1, -1.0
		for i := 0; i < n; i++ {
			if minDist[i] > farD {
				far, farD = i, minDist[i]
			}
		}
		centers = append(centers, far)
		for i := 0; i < n; i++ {
			if d := inst.Distance(i, far); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	assign = make([]int, n)
	for i := 0; i < n; i++ {
		best, bestD := 0, math.Inf(1)
		for c, center := range centers {
			if d := inst.Distance(i, center); d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
	}
	return centers, assign
}

// LowerBound returns the universal social-cost lower bound for the
// instance: strong connectivity needs at least n arcs and every ordered
// pair pays at least its model lower-bound term, so
//
//	C(G) ≥ α·n + Σ_{i≠j} LowerBound(d(i,j))
//
// (= αn + n(n-1) under the stretch model). No topology, optimal or not,
// can beat this.
func LowerBound(inst *core.Instance) float64 {
	n := inst.N()
	sum := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				sum += inst.Model().LowerBound(inst.Distance(i, j))
			}
		}
	}
	return inst.Alpha()*float64(n) + sum
}

// Portfolio returns the named candidate topologies for the instance. The
// social optimum is upper-bounded by the best of them.
func Portfolio(inst *core.Instance) (map[string]core.Profile, error) {
	n := inst.N()
	out := map[string]core.Profile{
		"full-mesh":      FullMesh(n),
		"chain":          Chain(n),
		"directed-cycle": DirectedCycle(n),
	}
	star, err := Star(n, 0)
	if err != nil {
		return nil, err
	}
	out["star"] = star
	out["mst"] = MSTProfile(inst)
	knn, err := KNearest(inst, int(math.Ceil(math.Sqrt(float64(n)))))
	if err != nil {
		return nil, err
	}
	out["knn-sqrt"] = knn
	tulip, err := Tulip(inst)
	if err != nil {
		return nil, err
	}
	out["tulip"] = tulip
	return out, nil
}

// BestOfPortfolio evaluates the portfolio and returns the cheapest
// topology, its name and cost.
func BestOfPortfolio(ev *core.Evaluator) (core.Profile, string, core.Cost, error) {
	portfolio, err := Portfolio(ev.Instance())
	if err != nil {
		return core.Profile{}, "", core.Cost{}, err
	}
	names := make([]string, 0, len(portfolio))
	for name := range portfolio {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic tie-breaking
	bestCost := core.Cost{Term: math.Inf(1)}
	var bestName string
	var best core.Profile
	for _, name := range names {
		p := portfolio[name]
		c := ev.SocialCost(p)
		if c.Total() < bestCost.Total() {
			best, bestName, bestCost = p, name, c
		}
	}
	return best, bestName, bestCost, nil
}

// Exhaustive finds the true social optimum by enumerating the entire
// profile space (2^(n(n-1)) profiles; n ≤ 4 is practical). maxProfiles
// guards the budget (0 means 2^22).
func Exhaustive(ev *core.Evaluator, maxProfiles int) (core.Profile, core.Cost, error) {
	bestCost := core.Cost{Term: math.Inf(1)}
	var best core.Profile
	err := core.EnumerateProfiles(ev.Instance().N(), maxProfiles, func(p core.Profile) bool {
		c := ev.SocialCost(p)
		if c.Total() < bestCost.Total() {
			best, bestCost = p.Clone(), c
		}
		return true
	})
	if err != nil {
		return core.Profile{}, core.Cost{}, err
	}
	return best, bestCost, nil
}

// AnnealConfig parameterizes simulated annealing over profiles.
type AnnealConfig struct {
	// Steps is the number of proposed moves (default 20000).
	Steps int
	// StartTemp and EndTemp define the geometric cooling schedule
	// (defaults 1.0 and 1e-3, scaled by the lower bound so temperatures
	// are cost-relative).
	StartTemp float64
	EndTemp   float64
}

// Anneal minimizes social cost by flipping random links with Metropolis
// acceptance. Disconnected topologies are handled with a finite penalty
// per unreachable pair so the search keeps a gradient. Returns the best
// connected profile seen and its cost.
func Anneal(ev *core.Evaluator, start core.Profile, cfg AnnealConfig, r *rng.RNG) (core.Profile, core.Cost, error) {
	if r == nil {
		return core.Profile{}, core.Cost{}, errors.New("opt: Anneal needs an RNG")
	}
	inst := ev.Instance()
	n := inst.N()
	if start.N() != n {
		return core.Profile{}, core.Cost{}, fmt.Errorf("opt: start profile has %d peers, instance has %d", start.N(), n)
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 20_000
	}
	if cfg.StartTemp <= 0 {
		cfg.StartTemp = 1.0
	}
	if cfg.EndTemp <= 0 || cfg.EndTemp > cfg.StartTemp {
		cfg.EndTemp = cfg.StartTemp / 1000
	}

	// Penalty per unreachable pair: larger than any achievable finite
	// term (a simple path visits ≤ n arcs, each at most the max pair
	// distance, over the min pair distance) plus a full mesh of links.
	maxD, minD := 0.0, math.Inf(1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				d := inst.Distance(i, j)
				maxD = math.Max(maxD, d)
				minD = math.Min(minD, d)
			}
		}
	}
	penalty := float64(n)*maxD/minD + inst.Alpha()*float64(n) + 1

	energy := func(p core.Profile) float64 {
		total := 0.0
		for i := 0; i < n; i++ {
			e := ev.PeerEval(p, i)
			total += e.Key() + float64(e.Unreachable)*penalty
		}
		return total
	}

	cur := start.Clone()
	curE := energy(cur)
	best := cur.Clone()
	bestE := curE
	bestCost := ev.SocialCost(cur)
	scale := LowerBound(inst)
	cool := math.Pow(cfg.EndTemp/cfg.StartTemp, 1/float64(cfg.Steps))
	temp := cfg.StartTemp
	for step := 0; step < cfg.Steps; step++ {
		i := r.Intn(n)
		j := r.Intn(n - 1)
		if j >= i {
			j++
		}
		if cur.HasLink(i, j) {
			_ = cur.RemoveLink(i, j)
		} else {
			_ = cur.AddLink(i, j)
		}
		newE := energy(cur)
		accept := newE <= curE || r.Float64() < math.Exp((curE-newE)/(temp*scale))
		if accept {
			curE = newE
			if newE < bestE {
				bestE = newE
				best = cur.Clone()
				bestCost = ev.SocialCost(cur)
			}
		} else {
			// Undo the flip.
			if cur.HasLink(i, j) {
				_ = cur.RemoveLink(i, j)
			} else {
				_ = cur.AddLink(i, j)
			}
		}
		temp *= cool
	}
	return best, bestCost, nil
}

// BestKnown returns the cheapest topology found by the portfolio plus a
// short annealing run seeded from it: the experiments' upper bound on
// the social optimum.
func BestKnown(ev *core.Evaluator, r *rng.RNG) (core.Profile, core.Cost, error) {
	best, _, cost, err := BestOfPortfolio(ev)
	if err != nil {
		return core.Profile{}, core.Cost{}, err
	}
	if r == nil {
		return best, cost, nil
	}
	annealed, annealedCost, err := Anneal(ev, best, AnnealConfig{Steps: 5000}, r)
	if err != nil {
		return core.Profile{}, core.Cost{}, err
	}
	if annealedCost.Total() < cost.Total() {
		return annealed, annealedCost, nil
	}
	return best, cost, nil
}
