package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"selfishnet/internal/cas"
	"selfishnet/internal/export"
	"selfishnet/internal/fabric"
	"selfishnet/internal/scenario"
)

// Config tunes a Server. The zero value is usable: sensible defaults
// are filled in by New.
type Config struct {
	// Workers is the async job worker pool width (default 2). Each
	// worker drains one sweep job at a time.
	Workers int
	// QueueDepth bounds queued (not yet running) jobs; submissions
	// beyond it are rejected with 503 (default 256).
	QueueDepth int
	// PointParallelism is the grid fan-out width inside one sweep job
	// (scenario.Sweep.RunContext parallelism; 0 = all cores). Results
	// are byte-identical at any value.
	PointParallelism int
	// RunParallelism is the internal fan-out width of synchronous
	// /v1/run and /v1/runall executions (0 = all cores).
	RunParallelism int
	// CacheEntries bounds the content-addressed result cache (LRU).
	// Values ≤ 0 select the default of 256; there is no unbounded
	// mode — pass a large bound if eviction should be effectively off.
	CacheEntries int
	// CacheMaxBytes additionally bounds the cache by total body bytes
	// (0 = entry bound only). Eviction is LRU on whichever bound trips.
	CacheMaxBytes int64
	// Store, when non-nil, backs the result cache and the sweep jobs
	// with a persistent content-addressed store: cache misses read
	// through to disk, completed results write through, and re-submitted
	// sweeps are served from blobs across restarts.
	Store *cas.Store
	// Fabric, when non-nil, executes sweep jobs through the distributed
	// coordinator instead of the in-process engine, and mounts the
	// fabric worker endpoints (/v1/workers/*, /v1/shards/*).
	Fabric *fabric.Coordinator
	// MaxJobs bounds the job store: once exceeded, the oldest terminal
	// jobs (done, failed, cancelled) are pruned — their ids 404 and
	// their hashes no longer dedup. Live jobs are never pruned. Values
	// ≤ 0 select the default of 1024.
	MaxJobs int
	// StatePath, when non-empty, persists job states there on Close and
	// restores them in New (interrupted jobs re-enqueue; done jobs keep
	// serving their results).
	StatePath string
	// MaxBodyBytes bounds every request body (http.MaxBytesReader);
	// oversized posts are rejected with 413 and counted in /metrics as
	// body_too_large. Values ≤ 0 select the default of 1 MiB.
	MaxBodyBytes int64
	// RunConcurrency bounds concurrent synchronous /v1/run evaluations
	// (default 4). Cache hits bypass the bound entirely; misses beyond
	// it wait FIFO in a queue of RunQueueDepth, and requests beyond
	// that are rejected with 429 + Retry-After.
	RunConcurrency int
	// RunQueueDepth bounds the FIFO wait queue behind RunConcurrency
	// (default 8). Queue occupancy drives the /healthz load level:
	// half-full is degraded (expensive specs shed), full is shedding.
	RunQueueDepth int
	// RunTimeout, when positive, is the per-request evaluation deadline
	// of /v1/run (the -run-timeout flag): the deadline propagates into
	// every dynamics step and churn event, an exceeded run answers 504,
	// and a client-supplied X-Run-Deadline-Ms header is clamped to it.
	// Zero means no server-side deadline (client disconnect still
	// aborts).
	RunTimeout time.Duration
	// ShedCost is the brownout watermark: once the load level leaves
	// ok, cache-missing specs whose Spec.CostEstimate exceeds it are
	// rejected with 429 before they queue, so cheap work and cached
	// reads keep flowing while expensive work is shed first. Values
	// ≤ 0 select the default of 4<<20 (≈ a large declarative run).
	ShedCost int64
}

// withDefaults resolves zero fields to the documented defaults.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RunConcurrency <= 0 {
		c.RunConcurrency = 4
	}
	if c.RunQueueDepth <= 0 {
		c.RunQueueDepth = 8
	}
	if c.ShedCost <= 0 {
		c.ShedCost = 4 << 20
	}
	return c
}

// Server is the topogamed HTTP service: the scenario engine behind a
// content-addressed result cache and an async job queue. Create with
// New, mount Handler, and Close for graceful shutdown.
type Server struct {
	cfg   Config
	cache *resultCache
	jobs  *jobManager
	mux   *http.ServeMux

	// admit gates synchronous /v1/run misses; draining flips once
	// BeginShutdown is called and makes every intake endpoint answer
	// 503 + Retry-After while in-flight work drains.
	admit    *admitter
	draining atomic.Bool

	// runSpec is the synchronous evaluation behind /v1/run and
	// /v1/runall — scenario.RunSpecContext in production. Overload
	// tests substitute a controllable runner before serving traffic.
	runSpec func(ctx context.Context, spec scenario.Spec) (*export.Table, error)

	runsTotal        atomic.Int64
	runErrors        atomic.Int64
	bodyTooLarge     atomic.Int64
	shedExpensive    atomic.Int64
	shedSaturated    atomic.Int64
	deadlineExceeded atomic.Int64
	disconnectAborts atomic.Int64
	shutdownRejected atomic.Int64
}

// New builds a Server (restoring persisted job state when
// Config.StatePath names an existing file) and starts its worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: newResultCache(cfg.CacheEntries, cfg.CacheMaxBytes, cfg.Store),
		jobs:  newJobManager(cfg.Workers, cfg.QueueDepth, cfg.MaxJobs, cfg.PointParallelism),
		admit: newAdmitter(cfg.RunConcurrency, cfg.RunQueueDepth),
	}
	s.runSpec = func(ctx context.Context, spec scenario.Spec) (*export.Table, error) {
		return scenario.RunSpecContext(ctx, spec, scenario.Params{Parallelism: cfg.RunParallelism})
	}
	s.jobs.store = cfg.Store
	if cfg.Fabric != nil {
		s.jobs.runner = func(ctx context.Context, sw scenario.Sweep, progress func(done, total int)) (*export.Table, []scenario.FailedPoint, error) {
			j, err := cfg.Fabric.Submit(sw, scenario.Params{}, 0, progress)
			if err != nil {
				return nil, nil, err
			}
			// Wait cancels the fabric job on ctx cancellation and
			// returns context.Canceled, so the job manager's existing
			// cancel/drain handling applies unchanged. Failures carries
			// the quarantine report of a partially-failed job.
			table, err := j.Wait(ctx)
			return table, j.Failures(), err
		}
	}
	if cfg.StatePath != "" {
		if err := s.jobs.loadState(cfg.StatePath); err != nil {
			// The manager's workers are already parked on the queue;
			// drain them so a failed New does not leak goroutines.
			_ = s.jobs.close(context.Background())
			return nil, err
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/runall", s.handleRunAll)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleJobCancel)
	mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Fabric != nil {
		mux.HandleFunc("POST /v1/workers/register", s.handleWorkerRegister)
		mux.HandleFunc("POST /v1/workers/{id}/heartbeat", s.handleWorkerHeartbeat)
		mux.HandleFunc("GET /v1/shards/next", s.handleShardNext)
		mux.HandleFunc("POST /v1/shards/{id}/result", s.handleShardResult)
	}
	s.mux = mux
	return s, nil
}

// Handler returns the HTTP handler for the /v1 API. Every request body
// is capped at Config.MaxBodyBytes before it reaches a handler, so no
// POST — spec, sweep, or shard result — can balloon memory; handlers
// surface the overflow as 413.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		s.mux.ServeHTTP(w, r)
	})
}

// BeginShutdown stops intake without waiting for anything: every
// /v1/run, /v1/runall and /v1/sweep submission from here on is
// rejected with 503 + Retry-After (counted as shutdown_rejected) while
// requests and jobs already in flight keep draining. Call it as the
// first step of graceful shutdown — before http.Server.Shutdown — so
// requests that slip in during the listener drain are turned away
// instead of starting fresh work. Idempotent; Close calls it too.
func (s *Server) BeginShutdown() {
	s.draining.Store(true)
}

// Close gracefully shuts the server down: intake stops (BeginShutdown),
// in-flight jobs drain (until ctx expires, after which they are
// cancelled and awaited), and — when configured — job states persist to
// Config.StatePath. The HTTP listener is the caller's to close
// (http.Server.Shutdown); call Close after it.
func (s *Server) Close(ctx context.Context) error {
	s.BeginShutdown()
	drainErr := s.jobs.close(ctx)
	if s.cfg.StatePath != "" {
		if err := s.jobs.saveState(s.cfg.StatePath); err != nil {
			return errors.Join(drainErr, err)
		}
	}
	return drainErr
}

// errorDoc is the JSON error envelope of every non-2xx response.
type errorDoc struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorDoc{Error: err.Error()})
}

// bodyError maps a request-body read/decode failure to its response:
// 413 (counted as body_too_large) when the MaxBodyBytes cap tripped,
// 400 otherwise.
func (s *Server) bodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.bodyTooLarge.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

func writeDoc(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// requestOverrides folds the ?quick and ?seed query parameters into a
// spec, mirroring the topogame CLI flags, so the cache key covers them.
func requestOverrides(r *http.Request, spec *scenario.Spec) error {
	q := r.URL.Query()
	if v := q.Get("quick"); v != "" {
		quick, err := strconv.ParseBool(v)
		if err != nil {
			return fmt.Errorf("serve: bad quick=%q: %w", v, err)
		}
		spec.Quick = spec.Quick || quick
	}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return fmt.Errorf("serve: bad seed=%q: %w", v, err)
		}
		spec.Seed = seed
	}
	return nil
}

// runMiss executes a cache-missing spec and installs the rendered body
// (the caller has already probed the cache for hash). A run cut short
// by ctx (deadline or disconnect) returns the ctx error verbatim, is
// not counted as a run error, and — critically — is never cached, so an
// aborted evaluation cannot poison the cache with a partial result.
func (s *Server) runMiss(ctx context.Context, spec scenario.Spec, hash string) ([]byte, error) {
	s.runsTotal.Add(1)
	table, err := s.runSpec(ctx, spec)
	if err != nil {
		if ctx.Err() == nil {
			s.runErrors.Add(1)
		}
		return nil, err
	}
	var buf bytes.Buffer
	if err := table.WriteJSON(&buf); err != nil {
		s.runErrors.Add(1)
		return nil, err
	}
	body := buf.Bytes()
	s.cache.put(hash, body)
	return body, nil
}

// rejectDraining answers 503 + Retry-After when shutdown has begun;
// callers return immediately on true. Jobs and requests already in
// flight are unaffected — only new intake is turned away.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	s.shutdownRejected.Add(1)
	w.Header().Set("Retry-After", "5")
	writeError(w, http.StatusServiceUnavailable,
		errors.New("serve: shutting down; not accepting new work"))
	return true
}

// runRequestContext derives the evaluation context for one /v1/run
// request: the request context (so a client disconnect aborts the run)
// bounded by the server's RunTimeout and, when the client sends
// X-Run-Deadline-Ms, by that too — the client deadline is clamped to
// the server's, never extending it. A header too large for a
// time.Duration saturates at the largest one instead of wrapping
// negative, so it too leaves RunTimeout in force.
func (s *Server) runRequestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	timeout := s.cfg.RunTimeout
	if h := r.Header.Get("X-Run-Deadline-Ms"); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("serve: invalid X-Run-Deadline-Ms %q", h)
		}
		d := time.Duration(math.MaxInt64)
		if ms <= int64(d/time.Millisecond) {
			d = time.Duration(ms) * time.Millisecond
		}
		if timeout == 0 || d < timeout {
			timeout = d
		}
	}
	if timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		return ctx, cancel, nil
	}
	ctx, cancel := context.WithCancel(r.Context())
	return ctx, cancel, nil
}

// handleRun executes one scenario.Spec synchronously. The body is the
// same Spec JSON `topogame spec` reads; ?quick=1 and ?seed=N mirror the
// CLI flags. The response is the table JSON (`topogame spec -json`
// bytes) with X-Spec-Hash and X-Cache: hit|miss headers; repeated
// identical requests are served from the cache byte-identically.
//
// Overload contract: cache hits always answer. Misses pass the
// admission gate (RunConcurrency in flight, RunQueueDepth waiting FIFO;
// beyond that 429 + Retry-After), are shed with 429 when the server is
// degraded and the spec is expensive (Spec.CostEstimate > ShedCost),
// run under the per-request deadline (RunTimeout clamped further by
// X-Run-Deadline-Ms; exceeded ⇒ 504), and abort promptly when the
// client disconnects.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	spec, err := scenario.ReadSpec(r.Body)
	if err != nil {
		s.bodyError(w, err)
		return
	}
	if err := requestOverrides(r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	hash, err := spec.Hash()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	// Cached reads bypass admission entirely: they cost nothing and must
	// keep flowing even when the server is shedding.
	if body, ok := s.cache.get(hash); ok {
		s.serveRunBody(w, hash, true, body)
		return
	}
	body, refused := s.runAdmitted(r, spec, hash)
	if refused != nil {
		refused.write(w)
		return
	}
	s.serveRunBody(w, hash, false, body)
}

// runRefusal is the answer to a cache miss that produced no body: the
// status, with Retry-After when set, or status 0 when the client is
// gone and nobody is listening.
type runRefusal struct {
	status     int
	retryAfter string
	err        error
}

func (rf *runRefusal) write(w http.ResponseWriter) {
	if rf.status == 0 {
		return
	}
	if rf.retryAfter != "" {
		w.Header().Set("Retry-After", rf.retryAfter)
	}
	writeError(w, rf.status, rf.err)
}

// runAdmitted runs one cache miss of a synchronous request (/v1/run,
// and each miss of /v1/runall) through the overload ladder: brownout
// sheds an expensive spec while the server is degraded (429), the
// admission gate bounds concurrent and queued runs (429 when
// saturated), and the run is bounded by the request deadline (504).
// It counts each outcome and returns either the rendered body or the
// refusal to answer with.
func (s *Server) runAdmitted(r *http.Request, spec scenario.Spec, hash string) ([]byte, *runRefusal) {
	// Brownout: under load, reject expensive work before it queues.
	if s.loadLevel() != levelOK && spec.CostEstimate() > s.cfg.ShedCost {
		s.shedExpensive.Add(1)
		return nil, &runRefusal{http.StatusTooManyRequests, "1",
			errors.New("serve: shedding expensive runs under load; retry later")}
	}
	release, err := s.admit.acquire(r.Context())
	if err != nil {
		if errors.Is(err, errSaturated) {
			s.shedSaturated.Add(1)
			return nil, &runRefusal{http.StatusTooManyRequests, "1", err}
		}
		// The client went away while queued; nobody is listening.
		s.disconnectAborts.Add(1)
		return nil, &runRefusal{}
	}
	defer release()
	ctx, cancel, err := s.runRequestContext(r)
	if err != nil {
		return nil, &runRefusal{status: http.StatusBadRequest, err: err}
	}
	defer cancel()
	body, err := s.runMiss(ctx, spec, hash)
	switch {
	case err == nil:
		return body, nil
	case errors.Is(err, context.DeadlineExceeded):
		s.deadlineExceeded.Add(1)
		return nil, &runRefusal{status: http.StatusGatewayTimeout,
			err: fmt.Errorf("serve: run exceeded its deadline: %w", err)}
	case errors.Is(err, context.Canceled):
		// Client disconnect mid-run: the evaluation aborted at its next
		// dynamics step and nothing was cached.
		s.disconnectAborts.Add(1)
		return nil, &runRefusal{}
	default:
		return nil, &runRefusal{status: http.StatusUnprocessableEntity, err: err}
	}
}

func (s *Server) serveRunBody(w http.ResponseWriter, hash string, hit bool, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Spec-Hash", hash)
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	_, _ = w.Write(body)
}

// runAllRequest is the body of POST /v1/runall.
type runAllRequest struct {
	// IDs are catalog entries to run; empty means the whole catalog.
	IDs []string `json:"ids,omitempty"`
	// Quick and Seed mirror the topogame run flags.
	Quick bool   `json:"quick,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
}

// handleRunAll executes catalog entries in order and streams a JSON
// array of their tables (export.JSONStream — byte-identical to
// `topogame run -json`), flushing after each table so clients see
// results as they complete. Every id goes through the same
// content-addressed cache as /v1/run, and every miss through the same
// overload ladder (runAdmitted): before the first table streams a
// refusal answers as /v1/run would, after it the connection aborts.
func (s *Server) handleRunAll(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	var req runAllRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		// An empty body is the zero request: the whole catalog at paper
		// defaults (`curl -X POST .../v1/runall` with no -d).
		s.bodyError(w, err)
		return
	}
	ids := req.IDs
	if len(ids) == 0 {
		ids = scenario.IDs()
	}
	specs := make([]scenario.Spec, len(ids))
	for i, id := range ids {
		spec, err := scenario.CatalogSpec(id)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		spec.Quick = spec.Quick || req.Quick
		if req.Seed != 0 {
			spec.Seed = req.Seed
		}
		specs[i] = spec
	}
	w.Header().Set("Content-Type", "application/json")
	flusher, _ := w.(http.Flusher)
	stream := export.NewJSONStream(w)
	for i, spec := range specs {
		var body []byte
		var refused *runRefusal
		if hash, err := spec.Hash(); err != nil {
			refused = &runRefusal{status: http.StatusUnprocessableEntity, err: err}
		} else if cached, ok := s.cache.get(hash); ok {
			body = cached
		} else {
			body, refused = s.runAdmitted(r, spec, hash)
		}
		if refused != nil {
			// Headers are sent once the first table streams; all we can
			// do mid-stream is abort the connection so the client sees a
			// truncated (invalid) document rather than a silent success.
			if i == 0 {
				refused.write(w)
				return
			}
			panic(http.ErrAbortHandler)
		}
		table, uerr := export.ParseTableJSON(body)
		if uerr != nil {
			panic(http.ErrAbortHandler)
		}
		if err := stream.Write(table); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = stream.Close()
}

// handleSweep submits a scenario.Sweep as an async job. The body is the
// same Sweep JSON `topogame sweep` reads; ?quick=1 folds quick mode
// into the base spec (and therefore the job's hash). A sweep whose
// canonical hash matches a queued, running or done job dedups onto it
// (200); otherwise the job is queued (202).
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	sw, err := scenario.ReadSweep(r.Body)
	if err != nil {
		s.bodyError(w, err)
		return
	}
	if err := requestOverrides(r, &sw.Base); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if r.URL.Query().Get("seed") != "" && len(sw.Seeds) > 0 {
		// Same guard as the topogame CLI: the seeds axis owns per-point
		// seeding, so a seed override would be silently ignored.
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: sweep has a seeds axis; ?seed would be ambiguous"))
		return
	}
	hash, err := sw.Hash()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	j, deduped, err := s.jobs.submit(sw, hash)
	if err != nil {
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	status := http.StatusAccepted
	if deduped {
		status = http.StatusOK
		w.Header().Set("X-Job-Dedup", "true")
	}
	writeDoc(w, status, j.snapshot())
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeDoc(w, http.StatusOK, s.jobs.list())
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", id))
		return nil, false
	}
	return j, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	writeDoc(w, http.StatusOK, j.snapshot())
}

// handleJobResult serves exactly the result table JSON of a done job —
// the bytes `topogame sweep -json` would print for the same sweep.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	doc := j.snapshot()
	if doc.State != JobDone {
		writeError(w, http.StatusConflict,
			fmt.Errorf("serve: job %s is %s, result available once done", doc.ID, doc.State))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Sweep-Hash", doc.Hash)
	_, _ = w.Write(doc.Result)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	if !s.jobs.requestCancel(j, "cancelled by request") {
		doc := j.snapshot()
		writeError(w, http.StatusConflict,
			fmt.Errorf("serve: job %s is already %s", doc.ID, doc.State))
		return
	}
	writeDoc(w, http.StatusOK, j.snapshot())
}

// catalogEntryDoc is one /v1/catalog element.
type catalogEntryDoc struct {
	ID          string        `json:"id"`
	Description string        `json:"description"`
	Spec        scenario.Spec `json:"spec"`
}

// handleCatalog lists the experiment registry: every id with its
// description and canonical (normalized) spec, ready to POST back to
// /v1/run.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	ids := scenario.IDs()
	docs := make([]catalogEntryDoc, 0, len(ids))
	for _, id := range ids {
		desc, err := scenario.Describe(id)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		spec, err := scenario.CatalogSpec(id)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		docs = append(docs, catalogEntryDoc{ID: id, Description: desc, Spec: spec.Normalize()})
	}
	writeDoc(w, http.StatusOK, docs)
}

// handleWorkerRegister admits a fabric worker and returns its id and
// lease. An empty body registers an unnamed worker.
func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	var req fabric.RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		s.bodyError(w, err)
		return
	}
	info := s.cfg.Fabric.Register(req.Name)
	writeDoc(w, http.StatusOK, fabric.RegisterResponse{
		WorkerID:    info.ID,
		LeaseMillis: info.Lease.Milliseconds(),
	})
}

// handleWorkerHeartbeat extends a worker's lease; 410 Gone tells a
// forgotten worker to re-register.
func (s *Server) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	if err := s.cfg.Fabric.Heartbeat(r.PathValue("id")); err != nil {
		writeError(w, http.StatusGone, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleShardNext hands the polling worker the next shard: 200 with
// the shard JSON, 204 when the queue is empty, 410 when the worker is
// unknown.
func (s *Server) handleShardNext(w http.ResponseWriter, r *http.Request) {
	shard, err := s.cfg.Fabric.NextShard(r.URL.Query().Get("worker"))
	if err != nil {
		writeError(w, http.StatusGone, err)
		return
	}
	if shard == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeDoc(w, http.StatusOK, shard)
}

// handleShardResult accepts a worker's shard results. Duplicate
// completions are 204 no-ops (idempotent by design); malformed or
// unknown submissions are 400.
func (s *Server) handleShardResult(w http.ResponseWriter, r *http.Request) {
	var req fabric.CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.bodyError(w, err)
		return
	}
	err := s.cfg.Fabric.CompleteShard(req.WorkerID, r.PathValue("id"),
		fabric.ShardResult{Results: req.Results, Error: req.Error, ErrorIndex: req.ErrorIndex})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// healthDoc is the /healthz body. Status is the load level: "ok",
// "degraded" (the /v1/run wait queue hit its half-full watermark —
// expensive specs are being shed) or "shedding" (the queue is full, or
// shutdown has begun — only cached reads flow). The endpoint always
// answers 200: it reports capacity, not liveness failure.
type healthDoc struct {
	Status string   `json:"status"`
	Jobs   jobStats `json:"jobs"`
}

// loadLevel is the server's current overload state — the admission
// gate's occupancy, overridden by shedding once shutdown begins.
func (s *Server) loadLevel() string {
	if s.draining.Load() {
		return levelShedding
	}
	return s.admit.level()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeDoc(w, http.StatusOK, healthDoc{Status: s.loadLevel(), Jobs: s.jobs.stats()})
}

// metricsDoc is the flat expvar-style counter set served by /metrics.
// The fabric and store sections only appear when configured (nil
// embedded pointers marshal as absent fields).
type metricsDoc struct {
	cacheStats
	jobStats
	*fabric.Counters
	*cas.Stats
	RunsTotal        int64 `json:"runs_total"`
	RunErrors        int64 `json:"run_errors"`
	BodyTooLarge     int64 `json:"body_too_large"`
	ShedExpensive    int64 `json:"shed_expensive"`
	ShedSaturated    int64 `json:"shed_saturated"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	DisconnectAborts int64 `json:"disconnect_aborts"`
	ShutdownRejected int64 `json:"shutdown_rejected"`
}

// Metrics returns the current counter snapshot (also served as JSON by
// GET /metrics): cache hits/misses/evictions, synchronous runs, job
// counts by state, worker utilization, and — when configured — the
// fabric and content store counters. Keys match the /metrics JSON
// field names; the doc is flat, so the round-trip below cannot lose a
// counter and new counters appear here automatically.
func (s *Server) Metrics() map[string]int64 {
	blob, err := json.Marshal(s.metricsDoc())
	if err != nil {
		return nil
	}
	out := make(map[string]int64)
	_ = json.Unmarshal(blob, &out)
	return out
}

func (s *Server) metricsDoc() metricsDoc {
	doc := metricsDoc{
		cacheStats:       s.cache.stats(),
		jobStats:         s.jobs.stats(),
		RunsTotal:        s.runsTotal.Load(),
		RunErrors:        s.runErrors.Load(),
		BodyTooLarge:     s.bodyTooLarge.Load(),
		ShedExpensive:    s.shedExpensive.Load(),
		ShedSaturated:    s.shedSaturated.Load(),
		DeadlineExceeded: s.deadlineExceeded.Load(),
		DisconnectAborts: s.disconnectAborts.Load(),
		ShutdownRejected: s.shutdownRejected.Load(),
	}
	if s.cfg.Fabric != nil {
		st := s.cfg.Fabric.Stats()
		doc.Counters = &st
	}
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		doc.Stats = &st
	}
	return doc
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeDoc(w, http.StatusOK, s.metricsDoc())
}
