package scenario

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// splitBudget resolves a requested top-level parallelism against a task
// count into (workers, inner): `workers` concurrent tasks, each allowed
// an internal fan-out of `inner`. requested ≤ 0 selects all cores. A
// single task keeps the whole budget (so one experiment fans its
// replicas at full width); many concurrent tasks on few cores each run
// their internals sequentially. An explicit caller-set inner width
// (explicitInner > 0) is respected as-is.
func splitBudget(requested, tasks, explicitInner int) (workers, inner int) {
	if tasks <= 0 {
		return 0, 1
	}
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	workers = requested
	if workers > tasks {
		workers = tasks
	}
	inner = explicitInner
	if inner == 0 {
		inner = requested / workers
		if inner < 1 {
			inner = 1
		}
	}
	return workers, inner
}

// forEachIndex runs fn(i) for every i in [0, n) across `workers`
// goroutines claiming indices from a shared counter. workers ≤ 1 runs
// the plain sequential loop. Callers write results into slices indexed
// by i and reduce in index order, which is what keeps every scenario
// table bit-identical at any width.
func forEachIndex(n, workers int, fn func(int)) {
	forEachIndexCtx(context.Background(), n, workers, fn)
}

// forEachIndexCtx is forEachIndex with cooperative cancellation: ctx is
// polled before each index is claimed, so a cancelled context stops new
// work while indices already claimed run to completion (the "drain
// in-flight" convention the serve layer's job cancellation relies on).
func forEachIndexCtx(ctx context.Context, n, workers int, fn func(int)) {
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
