package core

import (
	"fmt"
	"math"

	"selfishnet/internal/metric"
)

// Instance is a topology game: a metric space of peers plus the link
// maintenance price α and a cost model. Distances are cached in a matrix
// at construction, so Space.Distance is evaluated only once per pair.
type Instance struct {
	space           metric.Space
	n               int
	alpha           float64
	model           CostModel
	undirected      bool
	congestionGamma float64
	// dist is the n×n direct-distance matrix as one row-major slab:
	// d(i,j) lives at dist[i*n+j]. A single allocation keeps rows
	// adjacent in memory, which the SSSP adjacency build, the dense
	// reference and the DeviationBatch folds all scan sequentially.
	//
	// dist == nil marks an implicit uniform instance (a self-classified
	// uniform space, e.g. metric.UnitSpace): no slab is materialized and
	// every off-diagonal direct distance is directUnit. distRow then
	// serves the shared all-unit unitRow — its diagonal entry holds
	// directUnit rather than 0, which is safe because no distRow consumer
	// reads the diagonal (per-pair folds skip j == i and strategies
	// exclude self-links); code that may read the diagonal must go
	// through Distance, which special-cases i == j.
	dist []float64
	// unitRow and directUnit back the implicit uniform representation
	// (dist == nil): one shared row of n copies of the common unit.
	unitRow    []float64
	directUnit float64
	// Kernel dispatch (see kernels.go): chosen once at construction from
	// the metric class and γ.
	kernel kernelKind
	// unit is the common direct distance (kernelBFS); hopDist[h] is the
	// IEEE left-fold of h unit addends, the exact value heap Dijkstra
	// assigns a vertex settled at hop h. hopTerm[h] is the model's term
	// of hopDist[h] at the unit (0 at h = 0, the source's own column)
	// for each hop count whose distance is finite: the streamed fold
	// (msbfs.go) looks every reached pair up there. Immutable after
	// construction, so evaluator clones share them.
	unit    float64
	hopDist []float64
	hopTerm []float64
	// span is the largest integer distance (kernelDial).
	span int
	// peers is the source list 0..n−1 the all-pairs folds hand the row
	// loops, shared by every evaluator and pool over the instance.
	peers []int32
}

// Option configures an Instance.
type Option func(*Instance)

// WithModel selects the cost model (default StretchModel, the paper's).
func WithModel(m CostModel) Option {
	return func(in *Instance) { in.model = m }
}

// WithUndirected makes links traversable in both directions regardless
// of who maintains them, as in the Fabrikant et al. network-creation
// game (an edge bought by either endpoint serves both). The paper's P2P
// game is directed (a pointer is only useful to the peer storing it), so
// the default is directed.
func WithUndirected() Option {
	return func(in *Instance) { in.undirected = true }
}

// NewInstance creates a game over the given space with parameter α ≥ 0.
func NewInstance(space metric.Space, alpha float64, opts ...Option) (*Instance, error) {
	if space == nil {
		return nil, fmt.Errorf("core: nil space")
	}
	if space.N() < 2 {
		return nil, fmt.Errorf("core: game needs at least 2 peers, got %d", space.N())
	}
	if alpha < 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return nil, fmt.Errorf("core: invalid alpha %v", alpha)
	}
	in := &Instance{space: space, alpha: alpha}
	for _, opt := range opts {
		opt(in)
	}
	if in.model > DistanceModel {
		return nil, fmt.Errorf("core: unknown cost model %d", in.model)
	}
	if err := validateCongestion(in.congestionGamma); err != nil {
		return nil, err
	}
	n := space.N()
	in.n = n
	in.peers = make([]int32, n)
	for i := range in.peers {
		in.peers[i] = int32(i)
	}
	// Self-classified uniform spaces skip the O(n²) materialization: the
	// whole direct-distance matrix is one unit value, stored implicitly
	// (dist == nil) as a shared n-entry row. This is what lets instances
	// exist at n = 65536, where the slab alone would be 34 GB.
	if sc, ok := space.(metric.SelfClassified); ok {
		if info := sc.DistanceClass(); info.Kind == metric.ClassUniform {
			u := info.Unit
			if u <= 0 || math.IsNaN(u) || math.IsInf(u, 0) {
				return nil, fmt.Errorf("core: self-classified uniform unit %v, want finite positive", u)
			}
			in.directUnit = u
			in.unitRow = make([]float64, n)
			for j := range in.unitRow {
				in.unitRow[j] = u
			}
			in.classifyKernel(info)
			return in, nil
		}
	}
	in.dist = make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := space.Distance(i, j)
			if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				return nil, fmt.Errorf("core: space distance d(%d,%d) = %v, want finite positive", i, j, d)
			}
			in.dist[i*n+j] = d
		}
	}
	in.classifyKernel(metric.ClassifyFunc(n, func(i, j int) float64 { return in.dist[i*n+j] }))
	return in, nil
}

// classifyKernel selects the SSSP kernel from the metric class and the
// congestion setting (γ > 0 re-weights arcs by in-degree, destroying
// both the uniform and the integer structure, so it always falls back
// to the heap). Every kernel is bit-identical to the heap, so this is
// the one place the choice is made and nothing overrides it.
func (in *Instance) classifyKernel(info metric.ClassInfo) {
	n := in.n
	in.kernel = kernelHeap
	if in.congestionGamma == 0 {
		switch info.Kind {
		case metric.ClassUniform:
			in.kernel = kernelBFS
		case metric.ClassSmallInt:
			in.kernel = kernelDial
		}
	}
	switch in.kernel {
	case kernelBFS:
		in.unit = info.Unit
		// hopDist[h] replays Dijkstra's left-fold addition of h unit
		// weights; a path has at most n-1 arcs but the BFS probes one
		// level past the last wave, so size n+1.
		in.hopDist = make([]float64, n+1)
		for h := 1; h <= n; h++ {
			in.hopDist[h] = in.hopDist[h-1] + in.unit
		}
		// A path has at most n−1 arcs, and a hop count whose left-fold
		// overflows lies at distance +Inf, like a peer never reached.
		in.hopTerm = make([]float64, 1, n)
		for h := 1; h < n && !math.IsInf(in.hopDist[h], 1); h++ {
			in.hopTerm = append(in.hopTerm, in.model.Term(in.hopDist[h], in.unit))
		}
	case kernelDial:
		in.span = info.MaxWeight
	}
}

// Kernel reports the SSSP kernel the instance dispatches to: "bfs"
// (uniform metric, word-parallel bitset BFS), "dial" (small-integer
// metric, bucket-queue Dijkstra) or "heap" (general).
func (in *Instance) Kernel() string { return in.kernel.String() }

// N returns the number of peers.
func (in *Instance) N() int { return in.n }

// distRow returns the direct distances from peer i as a slice view into
// the row-major slab — or, on implicit uniform instances, the shared
// all-unit row (whose diagonal entry is the unit, not 0: callers must
// not read index i, and none of the per-pair folds do).
func (in *Instance) distRow(i int) []float64 {
	if in.dist == nil {
		return in.unitRow
	}
	return in.dist[i*in.n : (i+1)*in.n]
}

// Alpha returns the link-maintenance price α.
func (in *Instance) Alpha() float64 { return in.alpha }

// Model returns the cost model.
func (in *Instance) Model() CostModel { return in.model }

// Space returns the underlying metric space.
func (in *Instance) Space() metric.Space { return in.space }

// Distance returns the cached direct distance d(i,j).
func (in *Instance) Distance(i, j int) float64 {
	if in.dist != nil {
		return in.dist[i*in.n+j]
	}
	if i == j {
		return 0
	}
	return in.directUnit
}

// Cost is a decomposed cost value: Link is the α·degree part (C_E for a
// peer, α|E| for the whole system) and Term is the stretch/distance part
// (C_S). Total is their sum.
type Cost struct {
	Link float64
	Term float64
}

// Total returns Link + Term.
func (c Cost) Total() float64 { return c.Link + c.Term }

// Evaluator computes peer and social costs for profiles over one
// instance, reusing internal buffers. It is not safe for concurrent use;
// create one per goroutine with NewEvaluator, or derive per-goroutine
// copies from an existing evaluator with Clone (the bound Instance is
// immutable after construction, so clones share it safely).
//
// SocialCostBanded uses every core on its own: it fans its sources out
// across min(GOMAXPROCS, claims) workers, fewer when their level tables
// would pass streamRowBudget (see SocialCostBanded), each holding the
// hop levels of at most min(band, 64) sources for the call only. At
// width 1 the evaluator runs the streamed loop itself and keeps its
// table, so steady-state calls allocate nothing.
type Evaluator struct {
	inst *Instance
	// SSSP distance scratch (one entry per peer).
	d []float64
	// Scratch for the retained dense reference implementation.
	done []bool
	// g is the overlay of the profile last prepared: the one arc list
	// the heap, small-frontier, Dial and multi-source BFS kernels walk,
	// and each peer's link count (see graph.go).
	g    graph
	heap vertexHeap
	// Scratch for batched deviation evaluation (see deviation.go): the
	// rest rows, the fold row, the fixed row and the all-zero hop row of
	// undirected batches.
	batchFlat  []float64
	batchD     []float64
	batchFixed []float64
	batchZero  []float64
	// The DeviationBatch move base's columns (see moves.go).
	baseBest, baseSecond []float64
	baseArg              []int32
	// dyn, when attached by NewDynEval, lends its distance rows to the
	// deviation batches built on its profile (see NewDeviationBatch).
	// Nil by default.
	dyn *DynEval
	// Scratch for the exact search (exactsearch.go): per-depth distance
	// and term levels, the suffix-min table, the candidate list and the
	// counted-partner mask, for one search per evaluator at a time.
	stackLevels  []float64
	stackTerms   []float64
	suffixFlat   []float64
	suffixRows   [][]float64
	suffixSums   []float64
	suffixSingle []Eval
	candScratch  []int
	countScratch []bool
	// BFS kernel arena (kernelBFS instances): bitset adjacency rows (w
	// words per peer, reverse arcs pre-ORed in for undirected games)
	// plus the frontier/visited slabs, all rebuilt in place by prepare
	// and reused across sources — zero allocations in steady state.
	bfsAdj     []uint64
	bfsFront   []uint64
	bfsNext    []uint64
	bfsVisited []uint64
	// Dial kernel bucket storage (kernelDial instances).
	dial dialQueue
	// Streamed-path scratch of settleEvals (see msbfs.go): per-vertex
	// source masks, frontier lists, the hop-level table and the
	// per-source fold accumulators.
	ms msScratch
	// pool, when attached, fans the rest-row SSSPs of NewDeviationBatch
	// across evaluator clones. See AttachPool.
	pool *Pool
	// srcScratch collects source lists for settleRows.
	srcScratch []int32
	// batchRows and batch are the DeviationBatch arena: the row-view
	// slice and the batch value itself are evaluator-owned so a batch
	// build allocates nothing in steady state.
	batchRows [][]float64
	batch     DeviationBatch
}

// smallFrontierMax is the peer count up to which ssspFrom uses the
// unsorted-frontier settling loop instead of the indexed heap.
const smallFrontierMax = 16

// NewEvaluator returns an evaluator bound to the instance.
func NewEvaluator(inst *Instance) *Evaluator {
	n := inst.N()
	return &Evaluator{
		inst: inst,
		d:    make([]float64, n),
		done: make([]bool, n),
	}
}

// Clone returns a fresh evaluator over the same instance. The instance
// is immutable after construction, so clones can evaluate concurrently:
// one evaluator per goroutine is the concurrency contract. An attached
// pool is not inherited (a clone is usually created to run inside one).
func (ev *Evaluator) Clone() *Evaluator { return NewEvaluator(ev.inst) }

// AttachPool hands the evaluator a worker pool for intra-call
// parallelism: while attached, NewDeviationBatch fans the rest rows it
// settles (all n−1, or those an attached DynEval's rows cannot stand
// in for) across the pool's evaluator clones. Per-source rows are
// written to disjoint slots indexed by source, so results are
// byte-identical at any width — the same ordered-reduce convention as
// Pool's all-pairs methods. Pass nil to detach. The pool must be bound
// to the same instance. An attached pool is always consulted; callers
// that attach one for a sequence of operations (e.g. a replica loop)
// own its lifetime, and dynamics.Run leaves a caller-attached pool in
// place instead of layering its own.
//
// That row fill is its whole scope. The streamed fold
// (SocialCostBanded) never uses an attached pool: it fans out across
// min(GOMAXPROCS, claims) workers, capped by streamRowBudget, of a pool
// built for the call, each holding the hop levels of at most
// min(band, 64) sources for the call only.
func (ev *Evaluator) AttachPool(pl *Pool) { ev.pool = pl }

// Pool returns the attached worker pool, or nil.
func (ev *Evaluator) Pool() *Pool { return ev.pool }

// Instance returns the bound instance.
func (ev *Evaluator) Instance() *Instance { return ev.inst }

// strategyOf returns peer u's strategy under p with the override applied.
func strategyOf(p Profile, u, override int, alt Strategy) Strategy {
	if u == override {
		return alt
	}
	return p.strategies[u]
}

// prepare (re)builds the per-profile structures for SSSP: the overlay
// graph (graph.build: every traversal arc at its congestion-scaled
// weight, reverse traversals included in undirected games, so a settled
// node costs O(degree)) and, on kernelBFS instances, the bitset
// adjacency rows. They stay valid until the next prepare call; callers
// evaluating many sources over one profile go through settleRows, which
// prepares once and then calls ssspFrom per source.
func (ev *Evaluator) prepare(p Profile, override int, alt Strategy) {
	ev.prepareWith(p, override, alt, true)
}

// prepareWith is prepare with the bitset adjacency build optional:
// bitsetAdj = false skips the n·⌈n/64⌉-word bfsAdj slab on kernelBFS
// instances (512 MB at n = 65536) and builds only the graph.
// settleEvals' streamed path runs the multi-source BFS over the graph's
// arc list directly, so it never needs the slab; after a bitsetAdj =
// false call, ssspFrom must not be used on a kernelBFS instance until a
// full prepare rebuilds it.
func (ev *Evaluator) prepareWith(p Profile, override int, alt Strategy, bitsetAdj bool) {
	ev.g.build(ev.inst, p, override, alt)
	if bitsetAdj && ev.inst.kernel == kernelBFS {
		ev.prepareBFS(p, override, alt)
	}
}

// prepareBFS rebuilds the bitset adjacency rows the BFS kernel sweeps:
// row u holds u's strategy arcs and, for undirected instances, the
// reverse arcs of links others own to u (symmetry makes every
// traversal arc weigh the same unit, so one combined row is exact).
// Called from prepare on kernelBFS instances only (γ = 0, no scale).
func (ev *Evaluator) prepareBFS(p Profile, override int, alt Strategy) {
	n := ev.inst.N()
	w := bfsWords(n)
	if cap(ev.bfsAdj) < n*w {
		ev.bfsAdj = make([]uint64, n*w)
		ev.bfsFront = make([]uint64, w)
		ev.bfsNext = make([]uint64, w)
		ev.bfsVisited = make([]uint64, w)
	}
	ev.bfsAdj = ev.bfsAdj[:n*w]
	for u := 0; u < n; u++ {
		strategyOf(p, u, override, alt).WriteWords(ev.bfsAdj[u*w : u*w+w])
	}
	if !ev.inst.undirected {
		return
	}
	for v := 0; v < n; v++ {
		bit := uint64(1) << uint(v&63)
		wi := v >> 6
		strategyOf(p, v, override, alt).ForEach(func(u int) bool {
			ev.bfsAdj[u*w+wi] |= bit
			return true
		})
	}
}

// ssspFrom computes shortest-path distances from src over the adjacency
// built by the last prepare call, dispatching to the instance's kernel:
// word-parallel BFS for uniform metrics, a Dial bucket queue for
// small-integer metrics, and the indexed binary-heap Dijkstra
// (decrease-key, so each vertex is popped exactly once) in general. All
// kernels compute identical bits (see kernels.go). The result is valid
// until the next ssspFrom or prepare call.
//
// src starts at distance seed instead of 0, so every entry is the
// left-fold seed + w1 + w2 + … along its shortest path, the bits a
// Dijkstra from an earlier vertex gives when it reaches src at seed.
// The seeds callers pass are 0 or a direct distance. On the bfs and
// dial kernels the unseeded row plus seed already has those bits: there
// the seed is the unit u and hopDist[h] + u == hopDist[h+1], or an
// integer, and integer sums are exact.
func (ev *Evaluator) ssspFrom(src int, seed float64) []float64 {
	n := ev.inst.N()
	switch ev.inst.kernel {
	case kernelBFS:
		w := bfsWords(n)
		bfsUnitSSSP(ev.d, ev.bfsAdj, w, src, ev.inst.hopDist, ev.bfsFront[:w], ev.bfsNext[:w], ev.bfsVisited[:w])
		return ev.seeded(seed)
	case kernelDial:
		// Tiny instances keep the unsorted-frontier loop below: Dial's
		// empty-bucket scan costs O(max distance) ≥ O(span) per source,
		// which dominates at a handful of vertices.
		if n > smallFrontierMax {
			dialSSSP(ev.d, &ev.dial, ev.inst.span, src, &ev.g.csr)
			return ev.seeded(seed)
		}
	}
	d := ev.d
	for i := range d {
		d[i] = math.Inf(1)
	}
	d[src] = seed
	head, to, w := ev.g.head, ev.g.to, ev.g.w
	if n <= smallFrontierMax {
		// Tiny graphs: an unsorted frontier array beats the heap — the
		// active frontier of a sparse overlay holds a handful of
		// vertices, so linear min extraction is a few compares with no
		// sift traffic. A vertex joins the frontier once, when it is
		// first reached, so n slots suffice in directed and undirected
		// games alike. Settling order may differ from the heap's on
		// ties, but the computed distances are the same unique
		// min-over-paths fixpoint (cross-checked by the differential
		// SSSP tests).
		var frontier [smallFrontierMax]int32
		frontier[0] = int32(src)
		fn := 1
		for fn > 0 {
			bi, bd := 0, d[frontier[0]]
			for fi := 1; fi < fn; fi++ {
				if dv := d[frontier[fi]]; dv < bd {
					bi, bd = fi, dv
				}
			}
			u := frontier[bi]
			fn--
			frontier[bi] = frontier[fn]
			for k := head[u]; k < head[u+1]; k++ {
				v := to[k]
				if nd := bd + w[k]; nd < d[v] {
					if math.IsInf(d[v], 1) {
						frontier[fn] = v
						fn++
					}
					d[v] = nd
				}
			}
		}
		return d
	}
	h := &ev.heap
	h.reset(n)
	h.fix(int32(src), seed)
	for !h.empty() {
		u, du := h.popMin()
		for k := head[u]; k < head[u+1]; k++ {
			v := to[k]
			if nd := du + w[k]; nd < d[v] {
				d[v] = nd
				h.fix(v, nd)
			}
		}
	}
	return d
}

// seeded adds seed to every entry of the row a bfs or dial kernel just
// wrote into ev.d (see ssspFrom) and returns it.
func (ev *Evaluator) seeded(seed float64) []float64 {
	if seed != 0 {
		for j := range ev.d {
			ev.d[j] += seed
		}
	}
	return ev.d
}

// sssp computes shortest-path distances from src over the profile
// topology, with peer override's strategy replaced by alt (override = -1
// disables the override). The result is valid until the next sssp call.
func (ev *Evaluator) sssp(p Profile, src, override int, alt Strategy) []float64 {
	ev.prepare(p, override, alt)
	return ev.ssspFrom(src, 0)
}

// settleRows is the evaluator's one row loop. It prepares p once, with
// peer override playing alt (override = -1 disables the override), and
// hands visit the distance row of each source in srcs, in list order,
// settled by ssspFrom (bitset BFS, Dial, the heap or the small-frontier
// loop), stopping as soon as visit returns false. The list is always
// explicit: an empty one visits nothing. A row is valid only inside
// visit; the prepared adjacency stays valid after the call, as after
// prepare.
//
// A non-nil seed starts each source src at seed[src] (see ssspFrom); the
// undirected deviation batch passes its peer's direct distances, and
// every other caller passes nil.
//
// This loop runs on the caller's goroutine; Pool.settleRows is its
// fan-out twin. Callers that want each source's Eval, not its row, go
// through settleEvals, whose streamed path holds no row at all.
func (ev *Evaluator) settleRows(p Profile, override int, alt Strategy, srcs []int32, seed []float64, visit func(src int32, d []float64) bool) {
	ev.prepare(p, override, alt)
	for _, src := range srcs {
		if !visit(src, ev.ssspFrom(int(src), seedOf(seed, src))) {
			return
		}
	}
}

// settleEvals is the row loop's Eval twin: it hands visit the Eval of
// each source in srcs under p, peer override playing alt, in list
// order, stopping as soon as visit returns false; an empty list visits
// nothing. Every band yields the same bits:
//   - band == 0, and any band on heap and Dial instances, runs
//     settleRows and folds each row by peerEvalFrom.
//   - band ≥ 1 on kernelBFS instances is the streamed path: it prepares
//     the CSR only, never the bitset adjacency slab, and settles chunks
//     of min(band, 64) sources by foldChunk, so no distance row exists
//     and at most min(band, 64) sources' hop levels are resident.
//
// A source's degree is its out-arc count in the prepared adjacency, so
// the overriding source's Link counts alt. The streamed fold that fans
// out (socialCost at band ≥ 1) calls this loop at width 1 and
// Pool.settleEvals on a pool built for the call otherwise.
func (ev *Evaluator) settleEvals(p Profile, override int, alt Strategy, srcs []int32, band int, visit func(src int32, e Eval) bool) {
	if !ev.inst.msbfsBand(band) {
		ev.settleRows(p, override, alt, srcs, nil, func(src int32, d []float64) bool {
			return visit(src, ev.peerEvalFrom(d, int(src), int(ev.g.owned[src]), nil))
		})
		return
	}
	ev.prepareWith(p, override, alt, false)
	chunk := ev.inst.claimSize(band)
	for lo := 0; lo < len(srcs); lo += chunk {
		part := srcs[lo:min(lo+chunk, len(srcs))]
		if !ev.foldChunk(part, func(k int, e Eval) bool { return visit(part[k], e) }) {
			return
		}
	}
}

// seedOf returns source src's start distance in a row loop: seed[src],
// or 0 when the loop is unseeded.
func seedOf(seed []float64, src int32) float64 {
	if seed == nil {
		return 0
	}
	return seed[src]
}

// msbfsBand reports whether settleEvals takes the streamed path at
// band: band ≥ 1 on a kernelBFS instance.
func (in *Instance) msbfsBand(band int) bool { return band >= 1 && in.kernel == kernelBFS }

// ssspDense is the retained dense O(n²) reference implementation of the
// profile SSSP (selection-scan Dijkstra, congestion-aware, with the
// undirected case paying an O(n) ownership scan per settled node). It is
// kept solely as the trusted oracle for the differential test suite that
// cross-checks the heap SSSP; production paths always use prepare +
// ssspFrom. The result shares ev.d, so copy before comparing.
func (ev *Evaluator) ssspDense(p Profile, src, override int, alt Strategy) []float64 {
	n := ev.inst.N()
	inst := ev.inst
	var scale []float64
	if gamma := ev.inst.congestionGamma; gamma > 0 {
		indeg := make([]int, n)
		indegrees(p, override, alt, indeg)
		scale = make([]float64, n)
		for j := 0; j < n; j++ {
			scale[j] = 1 + gamma*float64(indeg[j])
		}
	}
	weight := func(u, v int) float64 {
		w := inst.Distance(u, v)
		if scale != nil {
			w *= scale[v]
		}
		return w
	}
	d, done := ev.d, ev.done
	for i := 0; i < n; i++ {
		d[i] = math.Inf(1)
		done[i] = false
	}
	d[src] = 0
	for iter := 0; iter < n; iter++ {
		u, best := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if !done[v] && d[v] < best {
				u, best = v, d[v]
			}
		}
		if u == -1 {
			break
		}
		done[u] = true
		du := d[u]
		strategyOf(p, u, override, alt).ForEach(func(j int) bool {
			if nd := du + weight(u, j); nd < d[j] {
				d[j] = nd
			}
			return true
		})
		if ev.inst.undirected {
			// Links owned by others are traversable too.
			for v := 0; v < n; v++ {
				if strategyOf(p, v, override, alt).Contains(u) {
					if nd := du + weight(u, v); nd < d[v] {
						d[v] = nd
					}
				}
			}
		}
	}
	return d
}

// Undirected reports whether links are traversable in both directions.
func (in *Instance) Undirected() bool { return in.undirected }

// Eval is a peer cost enriched with connectivity information. When a
// peer cannot reach everyone its paper cost is +Inf; comparing two
// infinite costs is meaningless, so oracles and dynamics order Evals
// lexicographically: fewer unreachable peers first, then smaller finite
// cost (Key). For connected strategies this coincides with Cost.Total().
type Eval struct {
	Cost        Cost
	Unreachable int     // number of peers with no overlay path from i
	FiniteTerm  float64 // sum of terms over reachable pairs only
}

// Key returns the finite comparable cost: Link + FiniteTerm.
func (e Eval) Key() float64 { return e.Cost.Link + e.FiniteTerm }

// Better reports whether e is strictly better than o: it reaches
// strictly more peers, or reaches the same number at a cost smaller by
// more than tol.
func (e Eval) Better(o Eval, tol float64) bool {
	if e.Unreachable != o.Unreachable {
		return e.Unreachable < o.Unreachable
	}
	return e.Key() < o.Key()-tol
}

// Gain returns how much is saved by moving from e to alternative alt:
// +Inf if alt reaches strictly more peers, -Inf if strictly fewer, and
// the finite cost difference otherwise.
func (e Eval) Gain(alt Eval) float64 {
	if alt.Unreachable < e.Unreachable {
		return math.Inf(1)
	}
	if alt.Unreachable > e.Unreachable {
		return math.Inf(-1)
	}
	return e.Key() - alt.Key()
}

// peerEvalFrom is the one rule that turns a distance row into an Eval:
// peer i's Eval given the distances d from i and the out-degree of its
// (possibly overridden) strategy, summed over the partners j with
// active[j] (nil: every peer; see active.go). It is boundedEval with no
// bound.
func (ev *Evaluator) peerEvalFrom(d []float64, i, degree int, active []bool) Eval {
	e, _ := ev.boundedEval(d, i, degree, active, math.NaN(), math.MaxInt)
	return e
}

// betterEval sums row d as peerEvalFrom does and reports whether the
// Eval is Better than than by more than tol; when it is, the Eval ==
// peerEvalFrom's. Its sum stops early once the Eval cannot be Better,
// and the Eval it then returns means nothing: under the built-in
// models, as soon as more terms are +Inf than than has unreachable
// peers, and, against a connected than, as soon as Link plus the
// partial sum reaches than.Key()−tol.
func (ev *Evaluator) betterEval(d []float64, i, degree int, active []bool, than Eval, tol float64) (Eval, bool) {
	threshold := math.NaN()
	if than.Unreachable == 0 {
		threshold = than.Key() - tol
	}
	e, done := ev.boundedEval(d, i, degree, active, threshold, than.Unreachable)
	return e, done && e.Better(than, tol)
}

// boundedEval is the core of peerEvalFrom and betterEval: it sums the
// terms of row d over the partners j ≠ i with active[j] (nil: every
// peer), in j order. A term, d[j] (distance) or d[j]/δ(i,j) (stretch),
// lies in [0, +Inf], so one FiniteTerm accumulator and an unreachable
// count suffice: Cost.Term is FiniteTerm, or +Inf when a term is, the
// bits a separate Term accumulator would give. It reports false, with a
// meaningless Eval, as soon as more than maxUnreachable terms are +Inf
// or Link plus the partial sum reaches threshold (partial sums of
// non-negative terms only grow); a NaN threshold never compares true.
func (ev *Evaluator) boundedEval(d []float64, i, degree int, active []bool, threshold float64, maxUnreachable int) (Eval, bool) {
	inst := ev.inst
	e := Eval{Cost: Cost{Link: inst.alpha * float64(degree)}}
	row := inst.distRow(i)[:len(d)]
	stretch := inst.model == StretchModel
	for j, t := range d {
		if j == i || (active != nil && !active[j]) {
			continue
		}
		if stretch {
			t /= row[j]
		}
		if math.IsInf(t, 1) {
			e.Unreachable++
			if e.Unreachable > maxUnreachable {
				return Eval{}, false
			}
			continue
		}
		e.FiniteTerm += t
		if e.Cost.Link+e.FiniteTerm >= threshold {
			return Eval{}, false
		}
	}
	e.Cost.Term = e.FiniteTerm
	if e.Unreachable > 0 {
		e.Cost.Term = math.Inf(1)
	}
	return e, true
}

// PeerEval returns peer i's enriched cost under profile p.
func (ev *Evaluator) PeerEval(p Profile, i int) Eval {
	d := ev.sssp(p, i, -1, Strategy{})
	return ev.peerEvalFrom(d, i, p.OutDegree(i), nil)
}

// DeviationEval returns peer i's enriched cost if it unilaterally
// switches to strategy alt while everyone else keeps playing p.
func (ev *Evaluator) DeviationEval(p Profile, i int, alt Strategy) Eval {
	d := ev.sssp(p, i, i, alt)
	return ev.peerEvalFrom(d, i, alt.Count(), nil)
}

// PeerCost returns peer i's decomposed cost under profile p. The Term
// part is +Inf if i cannot reach some peer.
func (ev *Evaluator) PeerCost(p Profile, i int) Cost {
	return ev.PeerEval(p, i).Cost
}

// SocialCost returns the decomposed social cost C(G) = α|E| + Σ terms.
// The adjacency is prepared once and shared by all n source runs.
func (ev *Evaluator) SocialCost(p Profile) Cost { return ev.socialCost(p, 0) }

// socialCost folds every peer's cost in source order through
// settleEvals at the given band; the fold is the same sequence of
// additions at every band and every width, so the bits are too. At
// band ≥ 1 the sources fan out across a pool of streamWidth workers,
// built for the call, when that is more than one.
func (ev *Evaluator) socialCost(p Profile, band int) Cost {
	if w := ev.inst.streamWidth(band); w > 1 {
		return NewPool(ev.inst, w).socialCost(p, band)
	}
	total := Cost{}
	ev.settleEvals(p, -1, Strategy{}, ev.inst.peers, band, func(_ int32, e Eval) bool {
		total.Link += e.Cost.Link
		total.Term += e.Cost.Term
		return true
	})
	return total
}

// TermMatrix returns the per-pair cost terms: entry (i,j) is the model
// term for pair (i,j) (the stretch, under the paper's model). Diagonal
// entries are 0; unreachable pairs are +Inf.
func (ev *Evaluator) TermMatrix(p Profile) [][]float64 {
	out := make([][]float64, ev.inst.N())
	ev.settleRows(p, -1, Strategy{}, ev.inst.peers, nil, func(src int32, d []float64) bool {
		out[src] = ev.inst.termRow(d, int(src))
		return true
	})
	return out
}

// MaxTerm returns the largest pairwise term (the maximum stretch under
// the paper's model). Theorem 4.1's key step bounds this by α+1 in any
// Nash equilibrium.
func (ev *Evaluator) MaxTerm(p Profile) float64 {
	maxT := 0.0
	ev.settleRows(p, -1, Strategy{}, ev.inst.peers, nil, func(src int32, d []float64) bool {
		if t := ev.inst.rowMaxTerm(d, int(src)); t > maxT {
			maxT = t
		}
		return true
	})
	return maxT
}

// Connected reports whether every peer reaches every other along the
// directed overlay.
func (ev *Evaluator) Connected(p Profile) bool {
	connected := true
	ev.settleRows(p, -1, Strategy{}, ev.inst.peers, nil, func(src int32, d []float64) bool {
		connected = reachesAll(d, int(src))
		return connected
	})
	return connected
}

// termRow returns source src's row of TermMatrix given its distance
// row d: the model term of every pair, 0 on the diagonal.
func (in *Instance) termRow(d []float64, src int) []float64 {
	row := make([]float64, in.n)
	direct := in.distRow(src)
	for j := range row {
		if j != src {
			row[j] = in.model.Term(d[j], direct[j])
		}
	}
	return row
}

// rowMaxTerm returns the largest model term over source src's pairs
// given its distance row d (0 if no term is positive).
func (in *Instance) rowMaxTerm(d []float64, src int) float64 {
	maxT := 0.0
	direct := in.distRow(src)
	for j := range d {
		if j == src {
			continue
		}
		if t := in.model.Term(d[j], direct[j]); t > maxT {
			maxT = t
		}
	}
	return maxT
}

// reachesAll reports whether source src's distance row d reaches every
// other peer.
func reachesAll(d []float64, src int) bool {
	for j, dj := range d {
		if j != src && math.IsInf(dj, 1) {
			return false
		}
	}
	return true
}

// Distances returns the SSSP distances from src in the overlay G[p].
// The returned slice is freshly allocated.
func (ev *Evaluator) Distances(p Profile, src int) ([]float64, error) {
	if src < 0 || src >= ev.inst.N() {
		return nil, fmt.Errorf("core: source %d out of range [0,%d)", src, ev.inst.N())
	}
	d := ev.sssp(p, src, -1, Strategy{})
	return append([]float64(nil), d...), nil
}
