package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"selfishnet/internal/cas"
	"selfishnet/internal/export"
	"selfishnet/internal/scenario"
)

// pointNamespace is the cas.Store namespace of rendered grid-point
// rows (JSON-encoded scenario.PointResult keyed by the point's spec
// hash). It is distinct from the serve layer's "run" namespace, which
// stores whole rendered tables under the same spec hashes.
const pointNamespace = "point"

// Config tunes a Coordinator. The zero value is usable.
type Config struct {
	// Store, when non-nil, persists every completed point row and
	// prefills submissions from disk — the cross-restart dedup layer.
	Store *cas.Store
	// ShardPoints is the target points-per-shard when a submission does
	// not pin a shard count (default 8).
	ShardPoints int
	// Lease is the worker liveness window: a worker that neither
	// heartbeats nor calls in for longer is declared lost and its
	// shards are reassigned (default 10s).
	Lease time.Duration
	// RetryBudget is how many failed execution attempts a single grid
	// point tolerates before it is quarantined — isolated from the
	// sweep so the job can finish with a partial-failure report instead
	// of retrying forever (default 3). Failures that cannot be pinned
	// on a point draw from a job-level budget of the same size; its
	// exhaustion fails the job.
	RetryBudget int
}

func (c Config) withDefaults() Config {
	if c.ShardPoints <= 0 {
		c.ShardPoints = 8
	}
	if c.Lease <= 0 {
		c.Lease = 10 * time.Second
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 3
	}
	return c
}

// workerState tracks one registered worker's lease and assignments.
type workerState struct {
	id       string
	name     string
	lastBeat time.Time
	shards   map[string]bool
}

// assignment binds an outstanding shard to the worker executing it.
type assignment struct {
	shard  *Shard
	worker string
	job    *Job
}

// Counters is the fabric metrics snapshot (field names match the
// /metrics JSON keys).
type Counters struct {
	WorkersRegistered int64 `json:"fabric_workers_registered"`
	WorkersLive       int64 `json:"fabric_workers_live"`
	WorkersLost       int64 `json:"fabric_workers_lost"`
	JobsSubmitted     int64 `json:"fabric_jobs_submitted"`
	JobsDone          int64 `json:"fabric_jobs_done"`
	JobsFailed        int64 `json:"fabric_jobs_failed"`
	JobsCancelled     int64 `json:"fabric_jobs_cancelled"`
	ShardsPending     int64 `json:"fabric_shards_pending"`
	ShardsAssigned    int64 `json:"fabric_shards_assigned"`
	ShardsCompleted   int64 `json:"fabric_shards_completed"`
	ShardsReassigned  int64 `json:"fabric_shards_reassigned"`
	ShardsRetried     int64 `json:"fabric_shards_retried"`
	DuplicateResults  int64 `json:"fabric_duplicate_results"`
	PointsExecuted    int64 `json:"fabric_points_executed"`
	PointsFromStore   int64 `json:"fabric_points_from_store"`
	PointsPoisoned    int64 `json:"fabric_points_poisoned"`
}

// Coordinator owns the shard queue, the worker registry and the
// in-flight jobs. All methods are safe for concurrent use.
type Coordinator struct {
	cfg Config

	mu         sync.Mutex
	jobs       map[string]*Job
	workers    map[string]*workerState
	pending    []*Shard
	assigned   map[string]*assignment  // shard id → live assignment
	shards     map[string]*shardRecord // shard id → shard+job, for the job's lifetime
	memo       map[string]scenario.PointResult
	nextJob    int64
	nextWorker int64
	counters   Counters
}

// shardRecord outlives the shard's assignment so duplicate
// completions after a reassignment can still be validated and
// counted as no-ops. failed latches the first error completion: a
// reassigned copy of the same shard failing again must not burn a
// second unit of retry budget (it is the same logical attempt).
type shardRecord struct {
	shard  *Shard
	job    *Job
	failed bool
}

// NewCoordinator builds a coordinator. Pass a cas.Store via Config to
// make point rows survive restarts.
func NewCoordinator(cfg Config) *Coordinator {
	return &Coordinator{
		cfg:      cfg.withDefaults(),
		jobs:     make(map[string]*Job),
		workers:  make(map[string]*workerState),
		assigned: make(map[string]*assignment),
		shards:   make(map[string]*shardRecord),
		memo:     make(map[string]scenario.PointResult),
	}
}

// Job is one submitted sweep moving through the fabric. Wait for its
// table with Wait; inspect dedup effectiveness with Counts.
type Job struct {
	ID    string
	coord *Coordinator
	sweep scenario.Sweep
	hash  string

	mu        sync.Mutex
	results   []scenario.PointResult
	filled    []bool
	remaining int
	executed  int
	fromStore int
	table     *export.Table
	err       error
	finished  bool
	done      chan struct{}

	// progress is guarded by progressMu, not mu: every invocation holds
	// progressMu for its whole duration, and the finishing transitions
	// (finalize, failJob, Cancel) detach the callback under progressMu
	// before closing done — so once Wait returns, no invocation is in
	// flight and none can start. Without the detach, a straggling shard
	// completion could fire the callback after Wait returned on
	// cancellation (the progress-after-return race).
	progressMu sync.Mutex
	progress   func(done, total int)

	// Retry/quarantine bookkeeping: failed execution attempts per grid
	// point, attempts not attributable to a point, the quarantine
	// report, and a sequence number for retry shard ids.
	failCount    map[int]int
	unattributed int
	failures     []scenario.FailedPoint
	retrySeq     int
}

// Submit validates and enumerates the sweep, prefills every point
// already present in the result store (or completed earlier in this
// coordinator's lifetime), splits the remainder into `shards`
// contiguous shards (≤ 0 selects the Config.ShardPoints default), and
// queues them for workers. progress, when non-nil, is called with
// monotone (done, total) point counts, prefills included. Params.Quick
// folds quick mode into every point, exactly like Sweep.Run.
func (c *Coordinator) Submit(sw scenario.Sweep, p scenario.Params, shards int, progress func(done, total int)) (*Job, error) {
	run := sw
	if p.Quick {
		// Folding quick into the base reaches every grid point, and the
		// assembled table's title/notes/headers do not read Quick — so
		// this is exactly RunContext's per-point fold.
		run.Base.Quick = true
	}
	points, err := run.EnumeratePoints()
	if err != nil {
		return nil, err
	}
	hash, err := run.Hash()
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	c.nextJob++
	id := fmt.Sprintf("fjob-%d", c.nextJob)
	c.counters.JobsSubmitted++
	c.mu.Unlock()

	j := &Job{
		ID:        id,
		coord:     c,
		sweep:     run,
		hash:      hash,
		results:   make([]scenario.PointResult, len(points)),
		filled:    make([]bool, len(points)),
		remaining: len(points),
		progress:  progress,
		done:      make(chan struct{}),
		failCount: make(map[int]int),
	}

	// Prefill from the memo and the persistent store: a point executed
	// for any earlier sweep (or before a restart) never runs again.
	var rest []scenario.Point
	for _, pt := range points {
		if res, ok := c.lookup(pt.Hash); ok {
			j.fill(pt.Index, res, false)
			continue
		}
		rest = append(rest, pt)
	}

	c.mu.Lock()
	c.jobs[id] = j
	for _, shard := range splitShards(id, run.Measures(), rest, shards, c.cfg.ShardPoints) {
		c.pending = append(c.pending, shard)
		c.shards[shard.ID] = &shardRecord{shard: shard, job: j}
	}
	c.mu.Unlock()

	j.mu.Lock()
	doneAlready := j.remaining == 0 && !j.finished
	j.mu.Unlock()
	if doneAlready {
		j.finalize()
	}
	return j, nil
}

// lookup finds a completed point row by content hash: the in-memory
// memo first, then the persistent store (whose hit is memoized).
func (c *Coordinator) lookup(hash string) (scenario.PointResult, bool) {
	c.mu.Lock()
	res, ok := c.memo[hash]
	store := c.cfg.Store
	c.mu.Unlock()
	if ok {
		return res, true
	}
	if store == nil {
		return scenario.PointResult{}, false
	}
	blob, ok, err := store.Get(pointNamespace, hash)
	if err != nil || !ok {
		return scenario.PointResult{}, false
	}
	if err := json.Unmarshal(blob, &res); err != nil {
		// A malformed blob is treated as a miss: the point re-executes
		// and the put is a no-op (write-once), leaving the store as-is.
		return scenario.PointResult{}, false
	}
	c.mu.Lock()
	c.memo[hash] = res
	c.mu.Unlock()
	return res, true
}

// record persists a completed point row under its content hash.
func (c *Coordinator) record(hash string, res scenario.PointResult) {
	c.mu.Lock()
	_, dup := c.memo[hash]
	if !dup {
		c.memo[hash] = res
	}
	store := c.cfg.Store
	c.mu.Unlock()
	if store != nil {
		if blob, err := json.Marshal(res); err == nil {
			_ = store.Put(pointNamespace, hash, blob)
		}
	}
}

// splitShards slices the unfinished points into `count` contiguous
// shards (≤ 0 derives the count from shardPoints); empty input yields
// no shards.
func splitShards(jobID string, measures []string, points []scenario.Point, count, shardPoints int) []*Shard {
	n := len(points)
	if n == 0 {
		return nil
	}
	if count <= 0 {
		count = (n + shardPoints - 1) / shardPoints
	}
	if count > n {
		count = n
	}
	shards := make([]*Shard, 0, count)
	for i := 0; i < count; i++ {
		// Balanced contiguous ranges: the first n%count shards get one
		// extra point.
		lo, hi := i*n/count, (i+1)*n/count
		shards = append(shards, &Shard{
			ID:       fmt.Sprintf("%s-shard-%d", jobID, i),
			Measures: append([]string(nil), measures...),
			Points:   points[lo:hi],
		})
	}
	return shards
}

// Register adds a worker under a fresh id and returns its lease.
func (c *Coordinator) Register(name string) WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextWorker++
	id := fmt.Sprintf("w-%d", c.nextWorker)
	c.workers[id] = &workerState{id: id, name: name, lastBeat: time.Now(), shards: make(map[string]bool)}
	c.counters.WorkersRegistered++
	return WorkerInfo{ID: id, Lease: c.cfg.Lease}
}

// Heartbeat extends a worker's lease. ErrUnknownWorker asks the
// worker to re-register.
func (c *Coordinator) Heartbeat(workerID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(time.Now())
	w, ok := c.workers[workerID]
	if !ok {
		return ErrUnknownWorker
	}
	w.lastBeat = time.Now()
	return nil
}

// NextShard assigns the next pending shard to the worker (nil when
// the queue is empty). The call counts as a heartbeat, and lapsed
// workers are reaped first — a polling fleet therefore detects losses
// within one poll interval past the lease.
func (c *Coordinator) NextShard(workerID string) (*Shard, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.reapLocked(now)
	w, ok := c.workers[workerID]
	if !ok {
		return nil, ErrUnknownWorker
	}
	w.lastBeat = now
	if len(c.pending) == 0 {
		return nil, nil
	}
	shard := c.pending[0]
	c.pending = c.pending[1:]
	c.assigned[shard.ID] = &assignment{shard: shard, worker: workerID, job: c.shards[shard.ID].job}
	w.shards[shard.ID] = true
	c.counters.ShardsAssigned++
	return shard, nil
}

// CompleteShard accepts a worker's results for a shard. Completion is
// idempotent: a shard that was reassigned and finishes twice lands on
// already-filled slots and changes nothing (the rows are
// content-addressed and equal by construction). An unknown shard id
// is an error; a completion for a finished job is a counted no-op.
//
// A failed completion charges one unit of retry budget against the
// failing point (ShardResult.ErrorIndex), salvages the completed
// prefix, and requeues the rest — with the failing point isolated in
// its own shard so the healthy remainder keeps flowing. A point whose
// budget runs out is quarantined: its slot is surrendered, the job
// finishes with a partial-failure report instead of retrying forever.
func (c *Coordinator) CompleteShard(workerID, shardID string, res ShardResult) error {
	c.mu.Lock()
	now := time.Now()
	c.reapLocked(now)
	if w, ok := c.workers[workerID]; ok {
		w.lastBeat = now
		delete(w.shards, shardID)
	}
	rec, known := c.shards[shardID]
	if !known {
		c.mu.Unlock()
		return fmt.Errorf("fabric: unknown shard %q", shardID)
	}
	j, shard := rec.job, rec.shard
	if a, ok := c.assigned[shardID]; ok && a.worker == workerID {
		delete(c.assigned, shardID)
	} else {
		// Either the shard was reassigned after this worker was
		// declared lost (its identical results still count — the live
		// assignee's completion becomes the duplicate), or it already
		// completed elsewhere. Both are counted no-op overlaps.
		c.counters.DuplicateResults++
	}
	c.counters.ShardsCompleted++
	firstFailure := res.Error != "" && !rec.failed
	if res.Error != "" {
		rec.failed = true
	}
	c.mu.Unlock()

	if res.Error != "" {
		// A reassigned copy of an already-charged shard failing again is
		// the same logical attempt: salvaging and requeueing ran the
		// first time, so the duplicate is dropped here.
		if firstFailure {
			c.handleShardFailure(j, shard, workerID, res)
		}
		return nil
	}
	if len(res.Results) != len(shard.Points) {
		return fmt.Errorf("fabric: shard %s: %d result(s) for %d point(s)", shardID, len(res.Results), len(shard.Points))
	}
	for i, pt := range shard.Points {
		if j.fill(pt.Index, res.Results[i], true) {
			c.record(pt.Hash, res.Results[i])
		}
	}
	j.finishIfDone()
	return nil
}

// handleShardFailure is the retry/quarantine policy for one charged
// shard failure: salvage the prefix the worker completed, attribute
// the failure to a grid point via ErrorIndex, and either requeue (the
// failing point isolated from the healthy remainder) or — once the
// point's budget is spent — quarantine it. Failures with no
// attributable point draw down a job-level budget and fail the whole
// job when it is gone (the one non-convergent state left).
func (c *Coordinator) handleShardFailure(j *Job, shard *Shard, workerID string, res ShardResult) {
	n := len(res.Results)
	if n > len(shard.Points) {
		n = len(shard.Points)
	}
	for i := 0; i < n; i++ {
		pt := shard.Points[i]
		if j.fill(pt.Index, res.Results[i], true) {
			c.record(pt.Hash, res.Results[i])
		}
	}

	var fail *scenario.Point
	for i := range shard.Points {
		if shard.Points[i].Index == res.ErrorIndex {
			fail = &shard.Points[i]
			break
		}
	}
	budget := c.cfg.RetryBudget
	switch {
	case fail == nil:
		j.mu.Lock()
		j.unattributed++
		exhausted := j.unattributed >= budget
		j.mu.Unlock()
		if exhausted {
			c.failJob(j, fmt.Errorf("fabric: shard %s on %s: %s (unattributable; retry budget exhausted)", shard.ID, workerID, res.Error))
			return
		}
		c.requeue(j, shard, j.unfilledOf(shard, -1))
	case j.isFilled(fail.Index):
		// The "failing" point already succeeded elsewhere (a transient
		// fault raced a duplicate execution): nothing to charge, just
		// keep the remainder moving.
		c.requeue(j, shard, j.unfilledOf(shard, -1))
	default:
		j.mu.Lock()
		j.failCount[fail.Index]++
		attempts := j.failCount[fail.Index]
		j.mu.Unlock()
		if attempts >= budget {
			c.poison(j, *fail, res.Error, attempts)
		} else {
			// Isolate the failing point in its own retry shard so the
			// healthy remainder progresses in parallel with its next
			// attempt.
			c.requeue(j, shard, []scenario.Point{*fail})
		}
		c.requeue(j, shard, j.unfilledOf(shard, fail.Index))
	}
	j.finishIfDone()
}

// poison quarantines one grid point: its slot is surrendered (the
// assembled table renders a placeholder row), and the failure joins
// the job's structured report.
func (c *Coordinator) poison(j *Job, pt scenario.Point, errMsg string, attempts int) {
	j.mu.Lock()
	if j.finished || j.filled[pt.Index] {
		j.mu.Unlock()
		return
	}
	j.filled[pt.Index] = true
	j.remaining--
	j.failures = append(j.failures, scenario.FailedPoint{Index: pt.Index, Hash: pt.Hash, Error: errMsg, Attempts: attempts})
	done, total := len(j.filled)-j.remaining, len(j.filled)
	j.mu.Unlock()
	c.mu.Lock()
	c.counters.PointsPoisoned++
	c.mu.Unlock()
	j.notifyProgress(done, total)
}

// requeue schedules points for another attempt as a fresh shard at the
// back of the queue.
func (c *Coordinator) requeue(j *Job, from *Shard, points []scenario.Point) {
	if len(points) == 0 {
		return
	}
	j.mu.Lock()
	if j.finished {
		j.mu.Unlock()
		return
	}
	j.retrySeq++
	id := fmt.Sprintf("%s-retry-%d", j.ID, j.retrySeq)
	j.mu.Unlock()
	shard := &Shard{ID: id, Measures: append([]string(nil), from.Measures...), Points: points}
	c.mu.Lock()
	c.pending = append(c.pending, shard)
	c.shards[shard.ID] = &shardRecord{shard: shard, job: j}
	c.counters.ShardsRetried++
	c.mu.Unlock()
}

// unfilledOf lists the shard's points whose slots are still open,
// excluding the grid index `exclude` (-1 excludes none), in grid
// order.
func (j *Job) unfilledOf(shard *Shard, exclude int) []scenario.Point {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []scenario.Point
	for _, pt := range shard.Points {
		if pt.Index != exclude && !j.filled[pt.Index] {
			out = append(out, pt)
		}
	}
	return out
}

// isFilled reports whether the grid point's slot is already occupied.
func (j *Job) isFilled(index int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.filled[index]
}

// finishIfDone finalizes the job when every slot is accounted for.
func (j *Job) finishIfDone() {
	j.mu.Lock()
	doneNow := j.remaining == 0 && !j.finished
	j.mu.Unlock()
	if doneNow {
		j.finalize()
	}
}

// reapLocked declares workers lost once their lease lapses and
// requeues their outstanding shards. Callers hold c.mu.
func (c *Coordinator) reapLocked(now time.Time) {
	for id, w := range c.workers {
		if now.Sub(w.lastBeat) <= c.cfg.Lease {
			continue
		}
		for shardID := range w.shards {
			a, ok := c.assigned[shardID]
			if !ok || a.worker != id {
				continue
			}
			delete(c.assigned, shardID)
			j := a.job
			j.mu.Lock()
			live := !j.finished
			j.mu.Unlock()
			if live {
				c.pending = append(c.pending, a.shard)
				c.counters.ShardsReassigned++
			}
		}
		delete(c.workers, id)
		c.counters.WorkersLost++
	}
}

// failJob terminates a job with an error and drops its queued shards.
func (c *Coordinator) failJob(j *Job, err error) {
	c.dropShards(j)
	j.mu.Lock()
	if j.finished {
		j.mu.Unlock()
		return
	}
	j.err = err
	j.finished = true
	j.mu.Unlock()
	j.detachProgress()
	close(j.done)
	c.mu.Lock()
	c.counters.JobsFailed++
	c.mu.Unlock()
}

// Cancel stops a job: queued shards are dropped, in-flight shard
// completions become no-ops, and Wait returns context.Canceled.
func (c *Coordinator) Cancel(j *Job) {
	c.dropShards(j)
	j.mu.Lock()
	if j.finished {
		j.mu.Unlock()
		return
	}
	j.err = context.Canceled
	j.finished = true
	j.mu.Unlock()
	j.detachProgress()
	close(j.done)
	c.mu.Lock()
	c.counters.JobsCancelled++
	c.mu.Unlock()
}

// dropShards removes a job's shards from the pending queue.
func (c *Coordinator) dropShards(j *Job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.pending[:0]
	for _, s := range c.pending {
		if c.shards[s.ID].job != j {
			kept = append(kept, s)
		}
	}
	// Zero the tail so dropped shards do not linger in the backing
	// array.
	for i := len(kept); i < len(c.pending); i++ {
		c.pending[i] = nil
	}
	c.pending = kept
}

// Stats returns the counter snapshot.
func (c *Coordinator) Stats() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.counters
	st.WorkersLive = int64(len(c.workers))
	st.ShardsPending = int64(len(c.pending))
	st.ShardsAssigned = int64(len(c.assigned))
	return st
}

// fill stores one point's result if its slot is still empty,
// reporting whether it was. executed distinguishes worker executions
// from store prefetches in the dedup counters.
func (j *Job) fill(index int, res scenario.PointResult, executed bool) bool {
	j.mu.Lock()
	if j.finished || j.filled[index] {
		j.mu.Unlock()
		if executed {
			j.coord.mu.Lock()
			j.coord.counters.DuplicateResults++
			j.coord.mu.Unlock()
		}
		return false
	}
	j.filled[index] = true
	j.results[index] = res
	j.remaining--
	if executed {
		j.executed++
	} else {
		j.fromStore++
	}
	done, total := len(j.filled)-j.remaining, len(j.filled)
	j.mu.Unlock()

	j.coord.mu.Lock()
	if executed {
		j.coord.counters.PointsExecuted++
	} else {
		j.coord.counters.PointsFromStore++
	}
	j.coord.mu.Unlock()
	j.notifyProgress(done, total)
	return true
}

// notifyProgress invokes the job's progress callback, serialized under
// progressMu so detachProgress can wait out an in-flight call.
func (j *Job) notifyProgress(done, total int) {
	j.progressMu.Lock()
	defer j.progressMu.Unlock()
	if j.progress != nil {
		j.progress(done, total)
	}
}

// detachProgress drops the progress callback, blocking until any
// in-flight invocation completes. The finishing transitions call it
// before closing done, so no callback fires after Wait returns.
func (j *Job) detachProgress() {
	j.progressMu.Lock()
	j.progress = nil
	j.progressMu.Unlock()
}

// finalize assembles the sweep table once every slot is filled. A job
// with quarantined points assembles partially: healthy rows stay
// byte-identical to a fault-free run, quarantined rows render
// placeholders, and the table's notes carry the failure report.
func (j *Job) finalize() {
	j.mu.Lock()
	if j.finished {
		j.mu.Unlock()
		return
	}
	var table *export.Table
	var err error
	if len(j.failures) > 0 {
		// Quarantine order is completion order; the report (and
		// AssemblePartial's contract) is grid order.
		sort.Slice(j.failures, func(a, b int) bool { return j.failures[a].Index < j.failures[b].Index })
		table, err = j.sweep.AssemblePartial(j.results, j.failures)
	} else {
		table, err = j.sweep.Assemble(j.results)
	}
	j.table, j.err = table, err
	j.finished = true
	j.mu.Unlock()
	j.detachProgress()
	close(j.done)
	j.coord.mu.Lock()
	if err == nil {
		j.coord.counters.JobsDone++
	} else {
		j.coord.counters.JobsFailed++
	}
	j.coord.mu.Unlock()
}

// Wait blocks until the job finishes and returns its table — exactly
// the bytes-producing table Sweep.Run builds for the same grid. A
// ctx cancellation cancels the job (Canceled error, like
// Sweep.RunContext).
func (j *Job) Wait(ctx context.Context) (*export.Table, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		j.coord.Cancel(j)
		return nil, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.table, j.err
}

// Counts reports how the job's points were satisfied: executed by
// workers vs served from the result store, out of the grid total. The
// restart acceptance criterion asserts executed == 0 on a
// re-submitted sweep.
func (j *Job) Counts() (executed, fromStore, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.executed, j.fromStore, len(j.filled)
}

// Failures returns the job's quarantined points in grid order — the
// structured partial-failure report (nil for a fully healthy job).
// Stable once Wait has returned.
func (j *Job) Failures() []scenario.FailedPoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.failures) == 0 {
		return nil
	}
	out := append([]scenario.FailedPoint(nil), j.failures...)
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}

// Hash returns the sweep's canonical content hash.
func (j *Job) Hash() string { return j.hash }
