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
	modelKind       modelKind
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
	// assigns a vertex settled at hop h. Immutable after construction,
	// so evaluator clones share it.
	unit    float64
	hopDist []float64
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
	in := &Instance{
		space: space,
		alpha: alpha,
		model: StretchModel{},
	}
	for _, opt := range opts {
		opt(in)
	}
	switch in.model.(type) {
	case StretchModel:
		in.modelKind = modelStretch
	case DistanceModel:
		in.modelKind = modelDistance
	default:
		in.modelKind = modelCustom
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
// SocialCostBanded uses every core on its own: it fans its rows out
// across min(GOMAXPROCS, claims) workers, fewer when their rows would
// pass streamRowBudget (see SocialCostBanded), each holding at most
// min(band, 64) rows that live only for the call. At width 1 the
// evaluator runs the streamed loop itself and keeps its rows, so
// steady-state calls allocate nothing.
type Evaluator struct {
	inst *Instance
	// SSSP distance scratch (one entry per peer).
	d []float64
	// Scratch for the retained dense reference implementation.
	done []bool
	// Scratch for congestion-aware evaluation.
	indegBuf []int
	scale    []float64 // per-peer congestion factors; nil when γ = 0
	// Per-profile adjacency in CSR form, rebuilt by prepare. fwd holds
	// the strategy arcs; rev is the maintained reverse-adjacency index
	// (only built for undirected instances, where links owned by others
	// are traversable too).
	fwd, rev csr
	revFill  []int32
	heap     vertexHeap
	// Scratch for batched deviation evaluation (see deviation.go).
	batchFlat []float64
	batchD    []float64
	// The DeviationBatch move base's columns (see moves.go).
	baseBest, baseSecond []float64
	baseArg              []int32
	// dyn, when attached by NewDynEval, lends its distance rows to the
	// deviation batches built on its profile (see NewDeviationBatch).
	// Nil by default.
	dyn *DynEval
	// Scratch for the exact oracle's stack search (one live
	// DeviationStack / suffix-min table per evaluator at a time).
	stackLevels  []float64
	stackTerms   []float64
	suffixFlat   []float64
	suffixRows   [][]float64
	suffixSums   []float64
	suffixSingle []Eval
	candScratch  []int
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
	// Streamed-path scratch of settleRows (see msbfs.go): per-vertex
	// source masks, frontier lists and band row storage.
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

// csr is a compressed-sparse-row adjacency: the arcs leaving vertex u
// are (to[k], w[k]) for k in [head[u], head[u+1]).
type csr struct {
	head []int32
	to   []int32
	w    []float64
}

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
// built for the call, each holding at most min(band, 64) rows that live
// only for the call.
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

// prepare (re)builds the per-profile adjacency structures for SSSP:
// congestion scale factors, the forward CSR over strategy arcs and — for
// undirected instances — the reverse-adjacency CSR, so traversing links
// owned by others costs O(indegree) per settled node instead of an O(n)
// scan. The structures stay valid until the next prepare call; callers
// evaluating many sources over one profile go through settleRows, which
// prepares once and then calls ssspFrom per source.
func (ev *Evaluator) prepare(p Profile, override int, alt Strategy) {
	ev.prepareWith(p, override, alt, true)
}

// prepareWith is prepare with the bitset adjacency build optional:
// bitsetAdj = false skips the n·⌈n/64⌉-word bfsAdj slab on kernelBFS
// instances (512 MB at n = 65536) and builds only the CSR structures.
// settleRows' streamed path runs the multi-source BFS over the CSR
// directly, so it never needs the slab; after a bitsetAdj = false call,
// ssspFrom must not be used on a kernelBFS instance until a full
// prepare rebuilds it.
func (ev *Evaluator) prepareWith(p Profile, override int, alt Strategy, bitsetAdj bool) {
	n := ev.inst.N()
	inst := ev.inst

	// Congestion: fold the head peer's in-degree into the arc weight, so
	// the traversal itself needs no special casing.
	if gamma := ev.inst.congestionGamma; gamma > 0 {
		if ev.indegBuf == nil {
			ev.indegBuf = make([]int, n)
		}
		ev.indegrees(p, override, alt, ev.indegBuf)
		if cap(ev.scale) < n {
			ev.scale = make([]float64, n)
		}
		ev.scale = ev.scale[:n]
		for j := 0; j < n; j++ {
			ev.scale[j] = 1 + gamma*float64(ev.indegBuf[j])
		}
	} else {
		ev.scale = nil
	}

	// Forward CSR: one row per peer, arcs to the strategy's targets.
	if cap(ev.fwd.head) < n+1 {
		ev.fwd.head = make([]int32, n+1)
	}
	ev.fwd.head = ev.fwd.head[:n+1]
	ev.fwd.head[0] = 0
	for u := 0; u < n; u++ {
		ev.fwd.head[u+1] = ev.fwd.head[u] + int32(strategyOf(p, u, override, alt).Count())
	}
	m := int(ev.fwd.head[n])
	if cap(ev.fwd.to) < m {
		ev.fwd.to = make([]int32, m)
		ev.fwd.w = make([]float64, m)
	}
	ev.fwd.to = ev.fwd.to[:m]
	ev.fwd.w = ev.fwd.w[:m]
	for u := 0; u < n; u++ {
		idx := ev.fwd.head[u]
		row := inst.distRow(u)
		strategyOf(p, u, override, alt).ForEach(func(j int) bool {
			w := row[j]
			if ev.scale != nil {
				w *= ev.scale[j]
			}
			ev.fwd.to[idx] = int32(j)
			ev.fwd.w[idx] = w
			idx++
			return true
		})
	}

	if bitsetAdj && ev.inst.kernel == kernelBFS {
		ev.prepareBFS(p, override, alt)
	}

	if !ev.inst.undirected {
		ev.rev.head = ev.rev.head[:0]
		return
	}

	// Reverse CSR: row u lists the owners v with u ∈ s_v; traversing
	// such a link from u into v costs d(u,v) scaled by v's congestion
	// factor (the peer being entered), matching the forward convention.
	if cap(ev.rev.head) < n+1 {
		ev.rev.head = make([]int32, n+1)
		ev.revFill = make([]int32, n)
	}
	ev.rev.head = ev.rev.head[:n+1]
	ev.revFill = ev.revFill[:n]
	for u := 0; u <= n; u++ {
		ev.rev.head[u] = 0
	}
	for v := 0; v < n; v++ {
		strategyOf(p, v, override, alt).ForEach(func(u int) bool {
			ev.rev.head[u+1]++
			return true
		})
	}
	for u := 0; u < n; u++ {
		ev.rev.head[u+1] += ev.rev.head[u]
		ev.revFill[u] = ev.rev.head[u]
	}
	if cap(ev.rev.to) < m {
		ev.rev.to = make([]int32, m)
		ev.rev.w = make([]float64, m)
	}
	ev.rev.to = ev.rev.to[:m]
	ev.rev.w = ev.rev.w[:m]
	for v := 0; v < n; v++ {
		sc := 1.0
		if ev.scale != nil {
			sc = ev.scale[v]
		}
		strategyOf(p, v, override, alt).ForEach(func(u int) bool {
			pos := ev.revFill[u]
			ev.rev.to[pos] = int32(v)
			// d(u,v), not d(v,u): matches the dense reference and the
			// forward convention even on asymmetric distance matrices.
			ev.rev.w[pos] = inst.Distance(u, v) * sc
			ev.revFill[u] = pos + 1
			return true
		})
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
func (ev *Evaluator) ssspFrom(src int) []float64 {
	n := ev.inst.N()
	switch ev.inst.kernel {
	case kernelBFS:
		w := bfsWords(n)
		bfsUnitSSSP(ev.d, ev.bfsAdj, w, src, ev.inst.hopDist, ev.bfsFront[:w], ev.bfsNext[:w], ev.bfsVisited[:w])
		return ev.d
	case kernelDial:
		// Tiny directed instances keep the unsorted-frontier loop below:
		// Dial's empty-bucket scan costs O(max distance) ≥ O(span) per
		// source, which dominates at a handful of vertices.
		if n > smallFrontierMax {
			var revHead, revTo []int32
			var revW []float64
			if ev.inst.undirected {
				revHead, revTo, revW = ev.rev.head, ev.rev.to, ev.rev.w
			}
			dialSSSP(ev.d, &ev.dial, ev.inst.span, src, ev.fwd.head, ev.fwd.to, ev.fwd.w, revHead, revTo, revW)
			return ev.d
		}
	}
	d := ev.d
	for i := range d {
		d[i] = math.Inf(1)
	}
	d[src] = 0
	fwdHead, fwdTo, fwdW := ev.fwd.head, ev.fwd.to, ev.fwd.w
	revHead, revTo, revW := ev.rev.head, ev.rev.to, ev.rev.w
	undirected := ev.inst.undirected
	if n <= smallFrontierMax && !undirected {
		// Tiny graphs: an unsorted frontier array beats the heap — the
		// active frontier of a sparse overlay holds a handful of
		// vertices, so linear min extraction is a few compares with no
		// sift traffic. Settling order may differ from the heap's on
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
			for k := fwdHead[u]; k < fwdHead[u+1]; k++ {
				to := fwdTo[k]
				if nd := bd + fwdW[k]; nd < d[to] {
					if math.IsInf(d[to], 1) {
						frontier[fn] = to
						fn++
					}
					d[to] = nd
				}
			}
		}
		return d
	}
	h := &ev.heap
	h.reset(n)
	h.fix(int32(src), 0)
	for !h.empty() {
		u, du := h.popMin()
		for k := fwdHead[u]; k < fwdHead[u+1]; k++ {
			to := fwdTo[k]
			if nd := du + fwdW[k]; nd < d[to] {
				d[to] = nd
				h.fix(to, nd)
			}
		}
		if undirected {
			for k := revHead[u]; k < revHead[u+1]; k++ {
				to := revTo[k]
				if nd := du + revW[k]; nd < d[to] {
					d[to] = nd
					h.fix(to, nd)
				}
			}
		}
	}
	return d
}

// sssp computes shortest-path distances from src over the profile
// topology, with peer override's strategy replaced by alt (override = -1
// disables the override). The result is valid until the next sssp call.
func (ev *Evaluator) sssp(p Profile, src, override int, alt Strategy) []float64 {
	ev.prepare(p, override, alt)
	return ev.ssspFrom(src)
}

// settleRows is the evaluator's one row loop. It prepares p once, with
// peer override playing alt (override = -1 disables the override), and
// hands visit the distance row of each source in srcs, in list order,
// stopping as soon as visit returns false. The list is always explicit:
// an empty one visits nothing. A row is valid only inside visit; the
// prepared adjacency stays valid after the call, as after prepare.
//
// band picks the path, and every path yields the same bits:
//   - band == 0 is the slab path: ssspFrom per source (bitset BFS,
//     Dial, the heap or the small-frontier loop).
//   - band ≥ 1 is the streamed path. On kernelBFS instances it runs
//     msbfsChunk over the CSR in chunks of min(band, 64) sources and
//     never builds the bitset adjacency slab, so at most min(band, 64)
//     rows are resident. Other kernels run ssspFrom per source.
//
// This loop runs on the caller's goroutine. The streamed fold that fans
// out (socialCost at band ≥ 1) calls it at width 1 and Pool.settleRows
// on a pool built for the call otherwise.
func (ev *Evaluator) settleRows(p Profile, override int, alt Strategy, srcs []int32, band int, visit func(src int32, d []float64) bool) {
	ev.prepareWith(p, override, alt, band == 0)
	if !ev.inst.msbfsBand(band) {
		for _, src := range srcs {
			if !visit(src, ev.ssspFrom(int(src))) {
				return
			}
		}
		return
	}
	chunk := ev.inst.claimSize(band)
	for lo := 0; lo < len(srcs); lo += chunk {
		part := srcs[lo:min(lo+chunk, len(srcs))]
		if !ev.settleChunk(part, func(k int, d []float64) bool { return visit(part[k], d) }) {
			return
		}
	}
}

// msbfsBand reports whether the row loops take the multi-source BFS
// path at band: band ≥ 1 on a kernelBFS instance.
func (in *Instance) msbfsBand(band int) bool { return band >= 1 && in.kernel == kernelBFS }

// settleChunk is the chunk body of the multi-source BFS path, shared by
// both row loops: it fills one row per source of part (at most 64) by
// msbfsChunk over ev's prepared CSR, in ev's reused row storage, and
// hands visit each source's position in part and its row, in order. It
// reports false as soon as visit does.
func (ev *Evaluator) settleChunk(part []int32, visit func(k int, d []float64) bool) bool {
	rows := ev.ms.rows(len(part), ev.inst.N())
	msbfsChunk(rows, part, ev.inst.hopDist, &ev.fwd, &ev.rev, ev.inst.undirected, &ev.ms)
	for k := range part {
		if !visit(k, rows[k]) {
			return false
		}
	}
	return true
}

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
		ev.indegrees(p, override, alt, indeg)
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

// peerEvalFrom computes the Eval of peer i given the SSSP distances from
// i and the out-degree of the (possibly overridden) strategy. The two
// built-in cost models are special-cased to keep the per-pair term out
// of interface dispatch on the hot path; the arithmetic is identical to
// the generic loop, so results match bit for bit.
func (ev *Evaluator) peerEvalFrom(d []float64, i, degree int) Eval {
	inst := ev.inst
	e := Eval{Cost: Cost{Link: inst.alpha * float64(degree)}}
	row := inst.distRow(i)
	n := inst.N()
	switch inst.modelKind {
	case modelStretch:
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			t := d[j] / row[j]
			e.Cost.Term += t
			if math.IsInf(t, 1) {
				e.Unreachable++
			} else {
				e.FiniteTerm += t
			}
		}
	case modelDistance:
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			t := d[j]
			e.Cost.Term += t
			if math.IsInf(t, 1) {
				e.Unreachable++
			} else {
				e.FiniteTerm += t
			}
		}
	default:
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			t := inst.model.Term(d[j], row[j])
			e.Cost.Term += t
			if math.IsInf(t, 1) {
				e.Unreachable++
			} else {
				e.FiniteTerm += t
			}
		}
	}
	return e
}

// modelKind caches the cost model's identity at construction, keeping
// type switches off the per-candidate hot paths.
type modelKind uint8

const (
	modelStretch modelKind = iota
	modelDistance
	modelCustom
)

// builtinMonotoneModel reports whether the instance's cost model is one
// of the two built-ins, whose per-pair term is monotone nondecreasing
// in the overlay distance (stretch d/δ and distance d). Monotonicity is
// what makes bounded evaluation and subtree lower bounds sound; custom
// models fall back to full evaluation.
func (ev *Evaluator) builtinMonotoneModel() bool {
	return ev.inst.modelKind != modelCustom
}

// PeerEval returns peer i's enriched cost under profile p.
func (ev *Evaluator) PeerEval(p Profile, i int) Eval {
	d := ev.sssp(p, i, -1, Strategy{})
	return ev.peerEvalFrom(d, i, p.OutDegree(i))
}

// DeviationEval returns peer i's enriched cost if it unilaterally
// switches to strategy alt while everyone else keeps playing p.
func (ev *Evaluator) DeviationEval(p Profile, i int, alt Strategy) Eval {
	d := ev.sssp(p, i, i, alt)
	return ev.peerEvalFrom(d, i, alt.Count())
}

// PeerCost returns peer i's decomposed cost under profile p. The Term
// part is +Inf if i cannot reach some peer.
func (ev *Evaluator) PeerCost(p Profile, i int) Cost {
	return ev.PeerEval(p, i).Cost
}

// SocialCost returns the decomposed social cost C(G) = α|E| + Σ terms.
// The adjacency is prepared once and shared by all n source runs.
func (ev *Evaluator) SocialCost(p Profile) Cost { return ev.socialCost(p, 0) }

// socialCost folds every peer's cost in source order through settleRows
// at the given band; the fold is the same sequence of additions at
// every band and every width, so the bits are too. At band ≥ 1 the
// rows fan out across a pool of streamWidth workers, built for the
// call, when that is more than one.
func (ev *Evaluator) socialCost(p Profile, band int) Cost {
	if w := ev.inst.streamWidth(band); w > 1 {
		return NewPool(ev.inst, w).socialCost(p, band)
	}
	total := Cost{}
	ev.settleRows(p, -1, Strategy{}, ev.inst.peers, band, func(src int32, d []float64) bool {
		c := ev.peerEvalFrom(d, int(src), p.OutDegree(int(src))).Cost
		total.Link += c.Link
		total.Term += c.Term
		return true
	})
	return total
}

// TermMatrix returns the per-pair cost terms: entry (i,j) is the model
// term for pair (i,j) (the stretch, under the paper's model). Diagonal
// entries are 0; unreachable pairs are +Inf.
func (ev *Evaluator) TermMatrix(p Profile) [][]float64 {
	out := make([][]float64, ev.inst.N())
	ev.settleRows(p, -1, Strategy{}, ev.inst.peers, 0, func(src int32, d []float64) bool {
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
	ev.settleRows(p, -1, Strategy{}, ev.inst.peers, 0, func(src int32, d []float64) bool {
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
	ev.settleRows(p, -1, Strategy{}, ev.inst.peers, 0, func(src int32, d []float64) bool {
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
