package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"selfishnet/internal/export"
	"selfishnet/internal/fabric"
	"selfishnet/internal/rng"
	"selfishnet/internal/scenario"
	"selfishnet/internal/serve"
)

// The fabric-sweep shape: many tiny points, so shard pull and push,
// JSON over HTTP and coordinator bookkeeping are most of each point's
// cost. Workers poll every fabricPoll when idle — well under a job's
// length, so the poll does not quantize the timed region.
const (
	fabricWorkers = 2
	fabricPoll    = time.Millisecond
)

// fabricGrid is 4 sizes × 10 prices × 20 seeds = 800 tiny points. The
// step cap of five moves per peer keeps a seed whose dynamics cycle
// from turning one point into thousands of moves.
func fabricGrid(seed uint64) scenario.Sweep {
	r := rng.New(seed)
	seeds := make([]uint64, 20)
	for i := range seeds {
		seeds[i] = r.Uint64()>>1 | 1
	}
	alphas := make([]float64, 10)
	for i := range alphas {
		alphas[i] = float64(1+i) / 2
	}
	return scenario.Sweep{
		Name: "fabric-tiny",
		Base: scenario.Spec{
			Metric:   scenario.MetricSpec{Family: "uniform", N: 5},
			Game:     scenario.GameSpec{Alpha: 1},
			Dynamics: scenario.DynamicsSpec{Oracle: "greedy", MaxSteps: 40},
		},
		Ns:     []int{5, 6, 7, 8},
		Alphas: alphas,
		Seeds:  seeds,
	}
}

// benchClient sits around a worker's fabric.HTTPClient. It reports
// registrations so set-up can end when both workers are in, and in a
// traced round it records the Next and Complete calls.
type benchClient struct {
	inner fabric.Client
	// registered receives one value per successful Register; its buffer
	// holds one per worker so neither worker ever blocks on it.
	registered chan struct{}
	tr         *tracer
	job        *atomic.Int64
	rec        *fabricRec
	// nextAt/nextPts remember the shard this worker pulled last; only
	// the worker's own loop touches them.
	nextAt  time.Duration
	nextPts int
}

// fabricRec collects the per-point fabric costs of a traced round.
type fabricRec struct {
	mu       sync.Mutex
	perPoint []float64 // ms per point, pull start to push end
}

func (c *benchClient) Register(name string) (fabric.WorkerInfo, error) {
	info, err := c.inner.Register(name)
	if err == nil {
		select {
		case c.registered <- struct{}{}:
		default:
		}
	}
	return info, err
}

func (c *benchClient) Heartbeat(workerID string) error { return c.inner.Heartbeat(workerID) }

func (c *benchClient) Next(workerID string) (*fabric.Shard, error) {
	s := c.tr.begin("fabric.next", c.job.Load(), 0)
	sh, err := c.inner.Next(workerID)
	if sh == nil {
		s.Attr = "empty"
	} else {
		c.nextAt, c.nextPts = s.Start, len(sh.Points)
	}
	c.tr.end(s)
	return sh, err
}

func (c *benchClient) Complete(workerID, shardID string, res fabric.ShardResult) error {
	s := c.tr.begin("fabric.complete", c.job.Load(), 0)
	err := c.inner.Complete(workerID, shardID, res)
	s = c.tr.end(s)
	if c.tr != nil && c.nextPts > 0 {
		c.rec.mu.Lock()
		c.rec.perPoint = append(c.rec.perPoint, float64(s.End-c.nextAt)/float64(time.Millisecond)/float64(c.nextPts))
		c.rec.mu.Unlock()
	}
	return err
}

// fabricState is one set-up fleet: a serve.Server with the coordinator
// mounted on a loopback listener and two workers speaking HTTP to it.
type fabricState struct {
	coord  *fabric.Coordinator
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *http.Client
	cancel context.CancelFunc
	wg     sync.WaitGroup
	job    atomic.Int64
}

func startFabric(tr *tracer, rec *fabricRec) (*fabricState, error) {
	f := &fabricState{coord: fabric.NewCoordinator(fabric.Config{}), served: make(chan error, 1)}
	var err error
	if f.srv, err = serve.New(serve.Config{Fabric: f.coord}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = f.srv.Close(context.Background())
		return nil, err
	}
	var h http.Handler = f.srv.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s := tr.begin("fabric.handler", f.job.Load(), 0)
			s.Attr = r.URL.Path
			inner.ServeHTTP(w, r)
			tr.end(s)
		})
	}
	f.hs = &http.Server{Handler: h}
	go func() { f.served <- f.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: fabricWorkers}}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	registered := make(chan struct{}, fabricWorkers)
	for i := 0; i < fabricWorkers; i++ {
		w := &fabric.Worker{
			Client:      &benchClient{inner: &fabric.HTTPClient{Base: base, HTTP: f.client}, registered: registered, tr: tr, job: &f.job, rec: rec},
			Name:        fmt.Sprintf("bench-%d", i),
			Parallelism: 1,
			Poll:        fabricPoll,
		}
		if tr != nil {
			w.RunPoint = func(ctx context.Context, spec scenario.Spec, measures []string, parallelism int) (scenario.PointResult, error) {
				s := tr.begin("scenario.point", f.job.Load(), 0)
				defer tr.end(s)
				return scenario.RunPointContext(ctx, spec, measures, parallelism)
			}
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = w.Run(ctx)
		}()
	}
	timeout := time.After(10 * time.Second)
	for i := 0; i < fabricWorkers; i++ {
		select {
		case <-registered:
		case <-timeout:
			f.stop()
			return nil, errors.New("fabric workers did not register within 10s")
		}
	}
	return f, nil
}

// stop tears the fleet down once the workers have returned; nothing is
// in flight then, so the listener and connections close at once
// instead of waiting out Shutdown's idle polling.
func (f *fabricState) stop() {
	f.cancel()
	f.wg.Wait()
	f.client.CloseIdleConnections()
	_ = f.hs.Close()
	<-f.served
	_ = f.srv.Close(context.Background())
}

// runFabricSweep times a grid of tiny points through a coordinator
// mounted in serve.New, executed by two workers over the topoworker
// HTTP protocol, with no store. Each round gets a fresh fleet, since a
// coordinator memoizes every row it has seen.
func runFabricSweep(e *runEnv) error {
	rep := &e.rep
	rep.workUnit = "points"
	sw := fabricGrid(e.opts.seed)
	refTable, err := sw.Run(scenario.Params{}, 1)
	if err != nil {
		return fmt.Errorf("reference sweep: %w", err)
	}
	ref, err := tableJSON(refTable)
	if err != nil {
		return err
	}
	points := len(refTable.Rows)
	rec := &fabricRec{}
	last, err := timeSetups(rep, 9, 1, nil, func() (*fabricState, error) { return startFabric(nil, rec) }, (*fabricState).stop)
	if err != nil {
		return err
	}
	last.stop()

	var pointSpans, nexts, completes, handlers spanQuery
	round := 0
	err = e.rounds(func(tr *tracer) (time.Duration, error) {
		round++
		t0 := time.Now()
		f, err := startFabric(tr, rec)
		if err != nil {
			return 0, err
		}
		rep.setup = append(rep.setup, time.Since(t0).Seconds())
		mark, lo := tr.mark(), tr.now()
		top := tr.begin("fabric.job", 0, 0)
		f.job.Store(top.ID)
		t1 := time.Now()
		var tb *export.Table
		job, err := f.coord.Submit(sw, scenario.Params{}, 0, nil)
		if err == nil {
			tb, err = job.Wait(context.Background())
		}
		d := time.Since(t1)
		tr.end(top)
		hi := tr.now()
		stats := f.coord.Stats()
		f.stop()
		rep.attempted += int64(points)
		if err != nil {
			rep.failOps(int64(points), "round %d: fabric job: %v", round, err)
		} else if got, err := tableJSON(tb); err != nil || !bytes.Equal(got, ref) {
			d := differingRows(tb, refTable)
			rep.failOps(int64(max(d, 1)), "round %d: fabric table differs from the in-process Sweep.Run in %d rows", round, d)
		}
		e.recordRound(tr, float64(points), d)
		if tr == nil {
			return d, nil
		}
		q := tr.since(mark).within(lo, hi)
		pts := q.named("scenario.point")
		nx := q.named("fabric.next")
		pointSpans = append(pointSpans, pts...)
		nexts = append(nexts, nx...)
		completes = append(completes, q.named("fabric.complete")...)
		handlers = append(handlers, q.named("fabric.handler")...)
		self := selfTimes(pts)
		rep.addRound(map[string]float64{
			"scenario.points":          float64(len(pts)),
			"scenario.self_s":          pts.selfTotal(self),
			"fabric.shards":            float64(stats.ShardsCompleted),
			"fabric.points_executed":   float64(stats.PointsExecuted),
			"fabric.reassigned":        float64(stats.ShardsReassigned),
			"fabric.retried":           float64(stats.ShardsRetried),
			"fabric.next_calls":        float64(len(nx)),
			"fabric.empty_next_share":  ratio(float64(len(nx.attr("empty"))), float64(len(nx))),
			"fabric.worker_busy_share": ratio(pts.total(), fabricWorkers*d.Seconds()),
		})
		rep.uncovered = append(rep.uncovered, 1-coverage(q, lo, hi))
		return d, nil
	})
	if err != nil {
		return err
	}
	rep.addExtra("points_per_s", "1/s", median(rep.work), len(rep.work))
	if e.opts.trace {
		rep.finishLayers()
		rep.setLayerPct("scenario.point_ms_p50", pointSpans, 50, time.Millisecond)
		rep.setLayerPct("scenario.point_ms_p90", pointSpans, 90, time.Millisecond)
		rep.setLayerPct("fabric.next_ms_p50", nexts, 50, time.Millisecond)
		rep.setLayerPct("fabric.complete_ms_p50", completes, 50, time.Millisecond)
		rep.setLayerPct("fabric.handler_us_p50", handlers, 50, time.Microsecond)
		rep.setLayerSamplesPct("fabric.point_ms_p50", rec.perPoint, 50)
	}
	fmt.Fprintf(e.out, "fabric: %d points per job, %d workers over HTTP, per-point parallelism 1, poll %v, no store\n",
		points, fabricWorkers, fabricPoll)
	return nil
}
