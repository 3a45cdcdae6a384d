package core

// csr is a compressed-sparse-row adjacency: the arcs leaving vertex u
// are (to[k], w[k]) for k in [head[u], head[u+1]).
type csr struct {
	head []int32
	to   []int32
	w    []float64
}

// graph is the overlay G[p] a profile induces, as the one arc list
// every SSSP kernel walks. Row u lists u's own links first, then, in
// undirected games, the reverse traversals of the links others own to
// u. An arc x→y weighs d(x,y)·scale[y]: the direct distance from the
// vertex it leaves, scaled by the congestion factor of the peer it
// enters (1 + γ·indeg, §6), so a reverse traversal weighs d(x,y), not
// the owner's d(y,x), which differs on asymmetric matrices.
//
// build is the only production code that maps a profile to traversal
// arcs. The evaluator builds one per prepare, and DynEval keeps one for
// its current profile, so the engine's rows and a fresh evaluator's
// come from the same arcs and weights.
type graph struct {
	csr
	// owned[u] is u's link count, so α·owned[u] is its Link cost.
	owned []int32
	// indeg counts the links entering each peer. It is kept in undirected
	// games, where it sizes the reverse arcs, and at γ > 0, where it sets
	// scale; otherwise it is stale.
	indeg []int
	// scale[j] = 1 + γ·indeg[j], the factor of every arc entering j; nil
	// at γ = 0.
	scale []float64
	// fill is the reverse-arc cursor of undirected builds.
	fill []int32
}

// build rebuilds g for profile p, peer override playing alt (override =
// -1 disables the override), reusing g's storage. O(n + E).
func (g *graph) build(inst *Instance, p Profile, override int, alt Strategy) {
	n := inst.N()
	gamma, undirected := inst.congestionGamma, inst.undirected
	if cap(g.head) < n+1 {
		g.head = make([]int32, n+1)
		g.owned = make([]int32, n)
	}
	g.head, g.owned = g.head[:n+1], g.owned[:n]
	if undirected || gamma > 0 {
		if len(g.indeg) < n {
			g.indeg = make([]int, n)
		}
		indegrees(p, override, alt, g.indeg[:n])
	}
	if gamma > 0 {
		if len(g.scale) < n {
			g.scale = make([]float64, n)
		}
		g.scale = g.scale[:n]
		for j := range g.scale {
			g.scale[j] = 1 + gamma*float64(g.indeg[j])
		}
	} else {
		g.scale = nil
	}

	g.head[0] = 0
	for u := 0; u < n; u++ {
		c := int32(strategyOf(p, u, override, alt).Count())
		g.owned[u] = c
		if undirected {
			c += int32(g.indeg[u])
		}
		g.head[u+1] = g.head[u] + c
	}
	m := int(g.head[n])
	if cap(g.to) < m {
		g.to = make([]int32, m)
		g.w = make([]float64, m)
	}
	g.to, g.w = g.to[:m], g.w[:m]

	// Own links first, each row through a local cursor: filling them
	// through g.fill, interleaved with the reverse arcs, slows every
	// prepare, the γ > 0 per-candidate SSSP's included.
	for u := 0; u < n; u++ {
		idx := g.head[u]
		row := inst.distRow(u)
		strategyOf(p, u, override, alt).ForEach(func(j int) bool {
			w := row[j]
			if g.scale != nil {
				w *= g.scale[j]
			}
			g.to[idx] = int32(j)
			g.w[idx] = w
			idx++
			return true
		})
	}
	if !undirected {
		return
	}

	// Reverse traversals: from each target u of v's link back into the
	// owner v, at d(u,v) scaled by v's factor, in owner order.
	if len(g.fill) < n {
		g.fill = make([]int32, n)
	}
	for u := 0; u < n; u++ {
		g.fill[u] = g.head[u] + g.owned[u]
	}
	for v := 0; v < n; v++ {
		sc := 1.0
		if g.scale != nil {
			sc = g.scale[v]
		}
		strategyOf(p, v, override, alt).ForEach(func(u int) bool {
			pos := g.fill[u]
			g.to[pos] = int32(v)
			g.w[pos] = inst.Distance(u, v) * sc
			g.fill[u] = pos + 1
			return true
		})
	}
}
