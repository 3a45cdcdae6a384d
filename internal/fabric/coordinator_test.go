package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"selfishnet/internal/cas"
	"selfishnet/internal/export"
	"selfishnet/internal/scenario"
)

// testSweep is the fabric test grid: 2×2×2 (seeds × alphas × gammas)
// over a small uniform metric in quick mode — 8 points, cheap enough
// for the byte-identity matrix.
func testSweep() scenario.Sweep {
	return scenario.Sweep{
		Name: "fabric-test",
		Base: scenario.Spec{
			Quick:  true,
			Seed:   1,
			Metric: scenario.MetricSpec{Family: "uniform", N: 8},
			Game:   scenario.GameSpec{Alpha: 2},
		},
		Alphas: []float64{1, 4},
		Seeds:  []uint64{1, 2},
		Gammas: []float64{0, 0.1},
	}
}

// drain registers one worker and synchronously executes every pending
// shard, returning how many shards it completed.
func drain(t *testing.T, c *Coordinator) int {
	t.Helper()
	w := c.Register("drain")
	n := 0
	for {
		shard, err := c.NextShard(w.ID)
		if err != nil {
			t.Fatal(err)
		}
		if shard == nil {
			return n
		}
		res := (&Worker{Parallelism: 1}).execute(context.Background(), shard)
		if err := c.CompleteShard(w.ID, shard.ID, res); err != nil {
			t.Fatal(err)
		}
		n++
	}
}

func TestSplitShardsCoversAllPointsInOrder(t *testing.T) {
	sw := testSweep()
	pts, err := sw.EnumeratePoints()
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int{1, 2, 3, 8, 16, 100} {
		shards := splitShards("fjob-1", sw.Measures(), pts, count, 8)
		want := count
		if want > len(pts) {
			want = len(pts)
		}
		if len(shards) != want {
			t.Fatalf("count=%d: %d shards, want %d", count, len(shards), want)
		}
		next := 0
		for _, s := range shards {
			if len(s.Points) == 0 {
				t.Fatalf("count=%d: empty shard %s", count, s.ID)
			}
			for _, pt := range s.Points {
				if pt.Index != next {
					t.Fatalf("count=%d: shard order broken, saw index %d want %d", count, pt.Index, next)
				}
				next++
			}
		}
		if next != len(pts) {
			t.Fatalf("count=%d: shards cover %d of %d points", count, next, len(pts))
		}
	}
	// Default sizing: shards of ~ShardPoints each.
	if got := len(splitShards("fjob-1", nil, pts, 0, 3)); got != 3 {
		t.Fatalf("default sizing made %d shards for 8 points at 3/shard, want 3", got)
	}
}

func TestSubmitAndDrainMatchesSweepRun(t *testing.T) {
	c := NewCoordinator(Config{})
	j, err := c.Submit(testSweep(), scenario.Params{}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := drain(t, c); n != 4 {
		t.Fatalf("drained %d shards, want 4", n)
	}
	table, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := testSweep().Run(scenario.Params{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, table, want)
	executed, fromStore, total := j.Counts()
	if executed != 8 || fromStore != 0 || total != 8 {
		t.Fatalf("counts = (%d, %d, %d), want (8, 0, 8)", executed, fromStore, total)
	}
}

func TestDuplicateCompletionIsCountedNoOp(t *testing.T) {
	c := NewCoordinator(Config{})
	j, err := c.Submit(testSweep(), scenario.Params{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := c.Register("dup")
	shard, err := c.NextShard(w.ID)
	if err != nil || shard == nil {
		t.Fatalf("NextShard: %v, %v", shard, err)
	}
	res := (&Worker{Parallelism: 1}).execute(context.Background(), shard)
	if err := c.CompleteShard(w.ID, shard.ID, res); err != nil {
		t.Fatal(err)
	}
	// Completing the same shard again must change nothing.
	if err := c.CompleteShard(w.ID, shard.ID, res); err != nil {
		t.Fatal(err)
	}
	table, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := testSweep().Run(scenario.Params{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, table, want)
	st := c.Stats()
	if st.DuplicateResults == 0 {
		t.Error("duplicate completion not counted")
	}
	if st.PointsExecuted != 8 {
		t.Errorf("PointsExecuted = %d, want 8 (duplicates must not double-count)", st.PointsExecuted)
	}
}

func TestLostWorkerShardsAreReassigned(t *testing.T) {
	c := NewCoordinator(Config{Lease: 30 * time.Millisecond})
	j, err := c.Submit(testSweep(), scenario.Params{}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A worker takes a shard and silently dies: no heartbeat, no
	// completion.
	dead := c.Register("dead")
	taken, err := c.NextShard(dead.ID)
	if err != nil || taken == nil {
		t.Fatalf("NextShard: %v, %v", taken, err)
	}
	time.Sleep(2 * c.cfg.Lease)
	// A live worker's polling reaps the corpse and picks up all four
	// shards, including the orphaned one.
	if n := drain(t, c); n != 4 {
		t.Fatalf("live worker drained %d shards, want 4 (orphan not requeued?)", n)
	}
	table, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := testSweep().Run(scenario.Params{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, table, want)
	st := c.Stats()
	if st.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1", st.WorkersLost)
	}
	if st.ShardsReassigned != 1 {
		t.Errorf("ShardsReassigned = %d, want 1", st.ShardsReassigned)
	}
	// The dead worker's id must now be rejected.
	if _, err := c.NextShard(dead.ID); err != ErrUnknownWorker {
		t.Errorf("reaped worker got %v, want ErrUnknownWorker", err)
	}
}

func TestStorePrefillSkipsExecution(t *testing.T) {
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Config{Store: store})
	j, err := c.Submit(testSweep(), scenario.Params{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, c)
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Same grid on a brand-new coordinator over the same store: every
	// point must come from disk, zero executions.
	c2 := NewCoordinator(Config{Store: store})
	var progressed int
	j2, err := c2.Submit(testSweep(), scenario.Params{}, 0, func(done, total int) { progressed = done })
	if err != nil {
		t.Fatal(err)
	}
	if n := drain(t, c2); n != 0 {
		t.Fatalf("store-served resubmission still queued %d shards", n)
	}
	table, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := testSweep().Run(scenario.Params{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, table, want)
	executed, fromStore, total := j2.Counts()
	if executed != 0 || fromStore != 8 || total != 8 {
		t.Fatalf("counts = (%d, %d, %d), want (0, 8, 8)", executed, fromStore, total)
	}
	if progressed != 8 {
		t.Fatalf("progress reported %d of 8 prefills", progressed)
	}
}

// poisonedWorker builds a worker whose RunPoint seam fails on the grid
// points with the listed spec hashes — always when failLimit <= 0, or
// only for the first failLimit attempts (a transient fault) — and
// executes everything else for real.
func poisonedWorker(failLimit int, hashes ...string) *Worker {
	bad := make(map[string]bool, len(hashes))
	for _, h := range hashes {
		bad[h] = true
	}
	fails := 0
	return &Worker{
		Parallelism: 1,
		RunPoint: func(ctx context.Context, spec scenario.Spec, measures []string, parallelism int) (scenario.PointResult, error) {
			if h, err := spec.Hash(); err == nil && bad[h] && (failLimit <= 0 || fails < failLimit) {
				fails++
				return scenario.PointResult{}, errors.New("synthetic poison")
			}
			return scenario.RunPointContext(ctx, spec, measures, parallelism)
		},
	}
}

// drainWith drains the queue through the given worker, returning how
// many shard attempts it completed and how many of those failed.
func drainWith(t *testing.T, c *Coordinator, w *Worker) (shards, failed int) {
	t.Helper()
	reg := c.Register("chaos-drain")
	for {
		shard, err := c.NextShard(reg.ID)
		if err != nil {
			t.Fatal(err)
		}
		if shard == nil {
			return shards, failed
		}
		res := w.execute(context.Background(), shard)
		if res.Error != "" {
			failed++
		}
		if err := c.CompleteShard(reg.ID, shard.ID, res); err != nil {
			t.Fatal(err)
		}
		shards++
	}
}

// TestPoisonPointQuarantine: a grid point that fails every attempt
// burns exactly the retry budget, is quarantined, and the job still
// completes — healthy rows byte-identical to a fault-free run, the
// poisoned row all placeholders, the report naming the point.
func TestPoisonPointQuarantine(t *testing.T) {
	pts, err := testSweep().EnumeratePoints()
	if err != nil {
		t.Fatal(err)
	}
	const poisonIdx = 5
	c := NewCoordinator(Config{}) // default RetryBudget: 3
	j, err := c.Submit(testSweep(), scenario.Params{}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, failed := drainWith(t, c, poisonedWorker(0, pts[poisonIdx].Hash)); failed != 3 {
		t.Errorf("poison point burned %d shard attempts, want exactly 3 (the retry budget)", failed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	table, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job with a quarantined point must still complete: %v", err)
	}

	failures := j.Failures()
	if len(failures) != 1 {
		t.Fatalf("failure report %+v, want exactly one entry", failures)
	}
	f := failures[0]
	if f.Index != poisonIdx || f.Hash != pts[poisonIdx].Hash || f.Attempts != 3 || !strings.Contains(f.Error, "synthetic poison") {
		t.Errorf("failure report entry %+v", f)
	}

	want, err := testSweep().Run(scenario.Params{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != len(want.Rows) {
		t.Fatalf("partial table has %d rows, want %d", len(table.Rows), len(want.Rows))
	}
	for i := range table.Rows {
		if i == poisonIdx {
			for col, cell := range table.Rows[i] {
				if cell != scenario.FailedCell {
					t.Errorf("poisoned row cell %d = %q, want %q", col, cell, scenario.FailedCell)
				}
			}
			continue
		}
		if got, w := fmt.Sprint(table.Rows[i]), fmt.Sprint(want.Rows[i]); got != w {
			t.Errorf("healthy row %d = %s, want %s (byte-identity broken)", i, got, w)
		}
	}

	st := c.Stats()
	if st.PointsPoisoned != 1 {
		t.Errorf("PointsPoisoned = %d, want 1", st.PointsPoisoned)
	}
	if st.ShardsRetried == 0 {
		t.Error("no retry shards queued for the failing point")
	}
	if st.JobsDone != 1 || st.JobsFailed != 0 {
		t.Errorf("jobs done/failed = %d/%d, want 1/0 (partial completion is done)", st.JobsDone, st.JobsFailed)
	}
	if executed, _, total := j.Counts(); executed != 7 || total != 8 {
		t.Errorf("counts = (%d executed, %d total), want (7, 8)", executed, total)
	}
}

// TestTransientPointFailureHeals: a point that fails twice (one short
// of the budget) and then succeeds leaves no trace — the final table
// is byte-identical to a fault-free run and the failure report empty.
func TestTransientPointFailureHeals(t *testing.T) {
	pts, err := testSweep().EnumeratePoints()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Config{})
	j, err := c.Submit(testSweep(), scenario.Params{}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, failed := drainWith(t, c, poisonedWorker(2, pts[2].Hash)); failed != 2 {
		t.Errorf("transient point failed %d shard attempts, want 2", failed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	table, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := testSweep().Run(scenario.Params{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, table, want)
	if f := j.Failures(); f != nil {
		t.Errorf("healed job still reports failures: %+v", f)
	}
	st := c.Stats()
	if st.PointsPoisoned != 0 {
		t.Errorf("PointsPoisoned = %d, want 0", st.PointsPoisoned)
	}
	if st.ShardsRetried < 2 {
		t.Errorf("ShardsRetried = %d, want >= 2", st.ShardsRetried)
	}
}

// TestUnattributedShardErrorFailsJob: failures that cannot be pinned
// on a grid point draw down the job-level budget; its exhaustion fails
// the job and drops its queued shards.
func TestUnattributedShardErrorFailsJob(t *testing.T) {
	c := NewCoordinator(Config{RetryBudget: 2})
	j, err := c.Submit(testSweep(), scenario.Params{}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := c.Register("failer")
	for i := 0; ; i++ {
		shard, err := c.NextShard(w.ID)
		if err != nil {
			t.Fatal(err)
		}
		if shard == nil {
			break
		}
		if i > 10 {
			t.Fatal("unattributable failures did not converge on a failed job")
		}
		if err := c.CompleteShard(w.ID, shard.ID, ShardResult{Error: "worker exploded", ErrorIndex: -1}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := j.Wait(ctx); err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("Wait returned %v, want unattributable budget exhaustion", err)
	}
	// The failed job's remaining shards are dropped from the queue.
	if next, err := c.NextShard(w.ID); err != nil || next != nil {
		t.Fatalf("failed job left shard %v in the queue (err %v)", next, err)
	}
}

func TestWaitCancellation(t *testing.T) {
	c := NewCoordinator(Config{})
	j, err := c.Submit(testSweep(), scenario.Params{}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := j.Wait(ctx); err != context.Canceled {
		t.Fatalf("Wait returned %v, want context.Canceled", err)
	}
	// Cancellation drops the job's pending shards.
	w := c.Register("after-cancel")
	if next, err := c.NextShard(w.ID); err != nil || next != nil {
		t.Fatalf("cancelled job left shard %v in the queue (err %v)", next, err)
	}
}

func TestCompleteUnknownShardRejected(t *testing.T) {
	c := NewCoordinator(Config{})
	w := c.Register("w")
	if err := c.CompleteShard(w.ID, "fjob-9-shard-9", ShardResult{}); err == nil {
		t.Error("completion of a never-issued shard accepted")
	}
}

// rowsOf returns n point results of width cells each.
func rowsOf(n, width int) []scenario.PointResult {
	out := make([]scenario.PointResult, n)
	for i := range out {
		out[i].Row = make([]string, width)
	}
	return out
}

// assertStoreRowsWide fails if any point row in the store lacks the
// sweep's row width, and returns how many point rows it holds.
func assertStoreRowsWide(t *testing.T, store *cas.Store, sw scenario.Sweep) int {
	t.Helper()
	pts, err := sw.EnumeratePoints()
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for _, pt := range pts {
		blob, ok, err := store.Get(pointNamespace, pt.Hash)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		stored++
		var res scenario.PointResult
		if err := json.Unmarshal(blob, &res); err != nil || len(res.Row) != sw.RowWidth() {
			t.Fatalf("point %d: stored blob %q is not a row of %d cells (%v)", pt.Index, blob, sw.RowWidth(), err)
		}
	}
	return stored
}

// TestForgedShardResultRefused: completions whose rows Assemble would
// refuse, sent for a live shard by a worker id that never registered,
// are refused before they fill a slot, store a row or charge retry
// budget. An honest worker then completes the job byte-identical to
// Sweep.Run, and the store holds only full-width rows.
func TestForgedShardResultRefused(t *testing.T) {
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw := testSweep()
	c := NewCoordinator(Config{Store: store})
	j, err := c.Submit(sw, scenario.Params{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	width := sw.RowWidth()
	for name, res := range map[string]ShardResult{
		"one-cell rows":      {Results: rowsOf(8, 1), ErrorIndex: -1},
		"one row short":      {Results: rowsOf(7, width), ErrorIndex: -1},
		"short failure rows": {Results: rowsOf(3, 1), Error: "forged", ErrorIndex: 3},
		"one short row":      {Results: append(rowsOf(2, width), rowsOf(1, width-1)...), Error: "forged", ErrorIndex: 3},
	} {
		if err := c.CompleteShard("w-999", j.ID+"-shard-0", res); err == nil {
			t.Fatalf("%s: forged completion accepted", name)
		}
	}
	if st := c.Stats(); st.ShardsCompleted != 0 || st.ShardsRetried != 0 || st.PointsExecuted != 0 || st.DuplicateResults != 0 {
		t.Fatalf("refused completions changed the counters: %+v", st)
	}
	if n := store.Len(); n != 0 {
		t.Fatalf("refused completions stored %d blob(s)", n)
	}
	if n := drain(t, c); n != 1 {
		t.Fatalf("drained %d shards, want 1", n)
	}
	table, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sw.Run(scenario.Params{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, table, want)
	if n := assertStoreRowsWide(t, store, sw); n != 8 {
		t.Fatalf("store holds %d point rows, want 8", n)
	}
}

// TestWrongWidthStoredRowReexecutes: a store that already holds a row
// of the wrong width (written before completions were checked) serves
// it to no job. The point re-executes on every coordinator, since the
// store is write-once, while the other points come from the store.
func TestWrongWidthStoredRowReexecutes(t *testing.T) {
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw := testSweep()
	pts, err := sw.EnumeratePoints()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(scenario.PointResult{Row: []string{"forged"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(pointNamespace, pts[0].Hash, blob); err != nil {
		t.Fatal(err)
	}
	want, err := sw.Run(scenario.Params{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for round, wantExecuted := range []int{8, 1} {
		c := NewCoordinator(Config{Store: store})
		j, err := c.Submit(sw, scenario.Params{}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		drain(t, c)
		table, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		assertTablesEqual(t, table, want)
		if executed, fromStore, _ := j.Counts(); executed != wantExecuted || fromStore != 8-wantExecuted {
			t.Fatalf("round %d: counts (%d executed, %d from store), want (%d, %d)",
				round, executed, fromStore, wantExecuted, 8-wantExecuted)
		}
	}
}

// FuzzShardResult decodes fuzzed JSON as a CompleteRequest, the body of
// POST /v1/shards/{id}/result, and completes a live shard of a 2-shard
// job with it. No input may panic, a completion is accepted exactly
// when its rows are the ones Assemble takes (one per shard point on a
// success, and every row, a failure's prefix included, of the sweep's
// row width), and no row of another width ever reaches the store.
func FuzzShardResult(f *testing.F) {
	sw := testSweep()
	width := sw.RowWidth()
	for _, req := range []CompleteRequest{
		{WorkerID: "w-1", Results: rowsOf(4, width), ErrorIndex: -1},
		{WorkerID: "w-999", Results: rowsOf(4, 1), ErrorIndex: -1},
		{WorkerID: "w-1", Results: rowsOf(2, width), Error: "point 2: boom", ErrorIndex: 2},
		{WorkerID: "w-1", Results: rowsOf(2, width+1), Error: "boom", ErrorIndex: 2},
		{WorkerID: "w-1", Error: "boom", ErrorIndex: -7},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"worker_id":"w-1","results":[{"row":null}]}`))
	f.Add([]byte(`{"results":[{"row":["1","2"]},{}],"error_index":99}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req CompleteRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
		store, err := cas.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c := NewCoordinator(Config{Store: store})
		if _, err := c.Submit(sw, scenario.Params{}, 2, nil); err != nil {
			t.Fatal(err)
		}
		w := c.Register("fuzz")
		shard, err := c.NextShard(w.ID)
		if err != nil || shard == nil {
			t.Fatalf("NextShard: %v, %v", shard, err)
		}
		wellFormed := req.Error != "" || len(req.Results) == len(shard.Points)
		for _, r := range req.Results {
			wellFormed = wellFormed && len(r.Row) == width
		}
		err = c.CompleteShard(req.WorkerID, shard.ID, ShardResult{Results: req.Results, Error: req.Error, ErrorIndex: req.ErrorIndex})
		if (err == nil) != wellFormed {
			t.Fatalf("completion %s: error %v, well-formed %t", body, err, wellFormed)
		}
		assertStoreRowsWide(t, store, sw)
	})
}

func TestHeartbeatKeepsWorkerAlive(t *testing.T) {
	c := NewCoordinator(Config{Lease: 40 * time.Millisecond})
	w := c.Register("beater")
	for i := 0; i < 5; i++ {
		time.Sleep(20 * time.Millisecond)
		if err := c.Heartbeat(w.ID); err != nil {
			t.Fatalf("beat %d: %v", i, err)
		}
	}
	if err := c.Heartbeat("w-999"); err != ErrUnknownWorker {
		t.Errorf("unknown worker heartbeat: %v, want ErrUnknownWorker", err)
	}
}

func assertTablesEqual(t *testing.T, got, want *export.Table) {
	t.Helper()
	if g, w := tableJSON(t, got), tableJSON(t, want); g != w {
		t.Fatalf("tables differ:\ngot:\n%s\nwant:\n%s", g, w)
	}
}

func tableJSON(t *testing.T, table *export.Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := table.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
