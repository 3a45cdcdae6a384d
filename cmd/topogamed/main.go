// Command topogamed serves the scenario engine over HTTP: synchronous
// spec execution behind a content-addressed result cache, asynchronous
// sweep jobs drained by a bounded worker pool, the experiment catalog,
// and operational counters. See internal/serve for the API.
//
//	topogamed -addr :8080 -workers 4 -state jobs.json
//
//	curl localhost:8080/v1/catalog
//	curl -X POST localhost:8080/v1/run -d '{"experiment": "e4-poa", "quick": true}'
//	curl -X POST localhost:8080/v1/sweep -d @grid.json
//	curl localhost:8080/v1/jobs/job-1
//	curl localhost:8080/metrics
//
// With -fabric the daemon is also a sweep coordinator: grids are split
// into shards pulled by fabric workers — in-process via
// -fabric-workers N, or remote topoworker processes speaking the
// /v1/workers and /v1/shards endpoints. -cas DIR mounts a persistent
// content-addressed result store (grid points and sweep tables survive
// restarts; nothing is computed twice), -cache-bytes adds a byte bound
// to the in-memory result cache, and -fabric-lease / -shard-points /
// -fabric-retry-budget tune worker liveness, shard granularity and the
// poison-point quarantine threshold. -max-body-bytes bounds every
// request body (oversized POSTs get 413).
//
//	topogamed -addr :8080 -fabric -fabric-workers 2 -cas /var/tmp/topocas
//
// Overload behavior: -run-concurrency bounds concurrent synchronous
// /v1/run evaluations with a FIFO wait queue of -run-queue behind it
// (saturation answers 429 + Retry-After; cache hits always flow),
// -run-timeout puts a per-request deadline on each evaluation (exceeded
// runs answer 504; clients may tighten it per request with
// X-Run-Deadline-Ms), and /healthz reports the load level
// (ok|degraded|shedding) — when degraded, expensive specs are shed
// first so cheap work keeps flowing.
//
// SIGINT/SIGTERM trigger a graceful shutdown: intake stops (new
// submissions get 503 + Retry-After), the listener stops, in-flight
// jobs drain (bounded by -drain-timeout, after which they are
// cancelled at the next grid-point boundary), and job states persist
// to -state for the next start.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"selfishnet/internal/cas"
	_ "selfishnet/internal/experiments" // register the 13 paper runners
	"selfishnet/internal/fabric"
	"selfishnet/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "topogamed:", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until ctx is cancelled (signal) and
// shutdown completes. ready, when non-nil, receives the bound address
// once the listener accepts connections — the test hook for -addr :0.
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("topogamed", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 2, "async sweep job workers")
	queue := fs.Int("queue", 256, "max queued jobs (submissions beyond are rejected)")
	cache := fs.Int("cache", 256, "result cache entries (LRU)")
	maxJobs := fs.Int("max-jobs", 1024, "job retention bound (oldest finished jobs pruned beyond it)")
	runPar := fs.Int("run-par", 0, "internal fan-out of synchronous runs (0 = all cores)")
	pointPar := fs.Int("point-par", 0, "grid fan-out inside one sweep job (0 = all cores)")
	state := fs.String("state", "", "persist job states to this file across restarts")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight jobs on shutdown")
	cacheBytes := fs.Int64("cache-bytes", 0, "additional byte bound on the result cache (0 = entry bound only)")
	casDir := fs.String("cas", "", "content-addressed result store directory (results survive restarts)")
	fabricOn := fs.Bool("fabric", false, "run sweeps on the distributed fabric (mounts /v1/workers, /v1/shards for topoworker)")
	fabricWorkers := fs.Int("fabric-workers", 0, "in-process fabric workers to start (requires -fabric)")
	fabricLease := fs.Duration("fabric-lease", 10*time.Second, "fabric worker liveness lease")
	shardPoints := fs.Int("shard-points", 8, "target grid points per fabric shard")
	retryBudget := fs.Int("fabric-retry-budget", 3, "failed attempts per grid point before quarantine")
	maxBodyBytes := fs.Int64("max-body-bytes", 1<<20, "max request body size (413 beyond it)")
	runTimeout := fs.Duration("run-timeout", 0, "per-request deadline for synchronous /v1/run evaluations (0 = none; exceeded runs answer 504)")
	runConcurrency := fs.Int("run-concurrency", 4, "max concurrent /v1/run evaluations (cache hits are unbounded)")
	runQueue := fs.Int("run-queue", 8, "FIFO wait queue behind -run-concurrency (beyond it: 429 + Retry-After)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *fabricWorkers > 0 && !*fabricOn {
		return fmt.Errorf("-fabric-workers requires -fabric")
	}
	if *runPar < 0 {
		return fmt.Errorf("invalid -run-par %d: want 0 (all cores) or a positive width", *runPar)
	}
	if *pointPar < 0 {
		return fmt.Errorf("invalid -point-par %d: want 0 (all cores) or a positive width", *pointPar)
	}

	var store *cas.Store
	if *casDir != "" {
		var err error
		if store, err = cas.Open(*casDir); err != nil {
			return err
		}
		log.Printf("topogamed: content store at %s (%d blobs)", *casDir, store.Len())
	}

	var coord *fabric.Coordinator
	if *fabricOn {
		coord = fabric.NewCoordinator(fabric.Config{
			Store:       store,
			Lease:       *fabricLease,
			ShardPoints: *shardPoints,
			RetryBudget: *retryBudget,
		})
	}

	srv, err := serve.New(serve.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheEntries:     *cache,
		CacheMaxBytes:    *cacheBytes,
		MaxJobs:          *maxJobs,
		RunParallelism:   *runPar,
		PointParallelism: *pointPar,
		StatePath:        *state,
		Store:            store,
		Fabric:           coord,
		MaxBodyBytes:     *maxBodyBytes,
		RunTimeout:       *runTimeout,
		RunConcurrency:   *runConcurrency,
		RunQueueDepth:    *runQueue,
	})
	if err != nil {
		return err
	}

	// In-process fabric workers: a single-box fleet with no extra
	// processes. External topoworker processes can join alongside them.
	var workerWG sync.WaitGroup
	workerCtx, stopWorkers := context.WithCancel(context.Background())
	// LIFO: stopWorkers cancels first, then the WaitGroup join below
	// sees the workers exit.
	defer workerWG.Wait()
	defer stopWorkers()
	for i := 0; i < *fabricWorkers; i++ {
		workerWG.Add(1)
		go func(i int) {
			defer workerWG.Done()
			w := &fabric.Worker{
				Client:      fabric.LocalClient{Coordinator: coord},
				Name:        fmt.Sprintf("local-%d", i),
				Parallelism: *pointPar,
				Logf:        log.Printf,
			}
			_ = w.Run(workerCtx)
		}(i)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// ReadHeaderTimeout caps slow-header (slowloris) connections;
	// IdleTimeout reclaims abandoned keep-alives. Body reads stay
	// unbounded here because long-running sweep polls are legitimate —
	// bodies are bounded by size (MaxBodyBytes) instead.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	log.Printf("topogamed: listening on %s (workers %d, cache %d entries)", ln.Addr(), *workers, *cache)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// Listener failed outright; still drain whatever got submitted.
		closeCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		return errors.Join(err, srv.Close(closeCtx))
	case <-ctx.Done():
	}

	log.Printf("topogamed: shutting down (drain timeout %s)", *drainTimeout)
	// Stop intake first: requests that race the listener drain get 503 +
	// Retry-After instead of starting fresh work; in-flight requests and
	// jobs keep draining below.
	srv.BeginShutdown()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("topogamed: http shutdown: %v", err)
	}
	if err := srv.Close(shutdownCtx); err != nil {
		return err
	}
	log.Printf("topogamed: drained cleanly")
	return nil
}
