package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"selfishnet/internal/cas"
	"selfishnet/internal/rng"
	"selfishnet/internal/scenario"
	"selfishnet/internal/serve"
)

// The serve-run sizes. The snapshot holds snapshotBlobs stored results;
// every round starts from a fresh copy of it, sends coldSpecs distinct
// unseen specs and then warmRequests repeats drawn with Zipf skew from
// a working set of the cold specs plus warmFromSnapshot stored ones —
// larger than the server's 256-entry LRU, so warm hits come both from
// memory and by read-through from the store.
// The cold phase takes about a quarter of a round: enough that put
// costs move work_per_s, while a spell of slow fsyncs on a shared disk
// moves it less than if puts filled the round, and a run rewrites the
// 2,000-entry index a few hundred times rather than a thousand.
const (
	snapshotBlobs    = 2000
	snapshotShards   = 32
	coldSpecs        = 30
	warmFromSnapshot = 570
	warmRequests     = 30000
	warmSkew         = 1.0
	serveConns       = 2
)

// serveSpec draws one small distinct declarative spec: a few peers and
// a cap of a few moves per peer, so evaluation is cheap and the store
// and the HTTP layer dominate.
func serveSpec(r *rng.RNG) scenario.Spec {
	fams := []string{"uniform", "unit", "clustered"}
	oracles := []string{"greedy", "local-search"}
	s := scenario.Spec{
		Seed:     r.Uint64()>>1 | 1,
		Metric:   scenario.MetricSpec{Family: fams[r.Intn(len(fams))], N: 6 + r.Intn(5)},
		Game:     scenario.GameSpec{Alpha: float64(1+r.Intn(16)) / 4},
		Dynamics: scenario.DynamicsSpec{Oracle: oracles[r.Intn(len(oracles))], MaxSteps: 50},
	}
	return s
}

// serveInputs are the seed-generated request bodies of serve-run.
type serveInputs struct {
	snapshot [][]byte // bodies of the specs whose results the snapshot holds
	cold     [][]byte // bodies of the cold phase, unseen by the snapshot
	warm     [][]byte // the warm phase's request sequence
	// warmIdx names each warm request's spec: k < coldSpecs is cold spec
	// k, anything else is snapshot spec k-coldSpecs.
	warmIdx []int
}

func genServeInputs(seed uint64) (serveInputs, error) {
	r := rng.New(seed)
	var in serveInputs
	seen := map[uint64]bool{}
	body := func() ([]byte, error) {
		for {
			s := serveSpec(r)
			if seen[s.Seed] {
				continue
			}
			seen[s.Seed] = true
			return json.Marshal(s)
		}
	}
	for i := 0; i < snapshotBlobs; i++ {
		b, err := body()
		if err != nil {
			return in, err
		}
		in.snapshot = append(in.snapshot, b)
	}
	for i := 0; i < coldSpecs; i++ {
		b, err := body()
		if err != nil {
			return in, err
		}
		in.cold = append(in.cold, b)
	}
	// The working set: every cold spec plus warmFromSnapshot stored
	// ones, in a seeded popularity order.
	working := make([]int, 0, coldSpecs+warmFromSnapshot)
	for i := 0; i < coldSpecs; i++ {
		working = append(working, i)
	}
	for _, k := range r.Perm(snapshotBlobs)[:warmFromSnapshot] {
		working = append(working, coldSpecs+k)
	}
	r.Shuffle(len(working), func(i, j int) { working[i], working[j] = working[j], working[i] })
	z := rng.NewZipf(len(working), warmSkew)
	for i := 0; i < warmRequests; i++ {
		k := working[z.Sample(r)]
		in.warmIdx = append(in.warmIdx, k)
		if k < coldSpecs {
			in.warm = append(in.warm, in.cold[k])
		} else {
			in.warm = append(in.warm, in.snapshot[k-coldSpecs])
		}
	}
	return in, nil
}

// serveDirect posts one body to a handler in process and returns the
// response.
func serveDirect(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
	return rr
}

// buildSnapshot stores the snapshot specs' results the way a running
// topogamed would — each posted to a server backed by a store — then
// merges the shard stores into dir. The shards keep each store's index,
// which every put rewrites, small while it is built; cas.Open adopts
// the blobs of the merged tree, which is the store's documented
// rebuild-from-blobs path. It returns the body each snapshot spec was
// served with.
func buildSnapshot(dir string, bodies [][]byte) ([][]byte, error) {
	served := make([][]byte, len(bodies))
	errs := make([]error, snapshotShards)
	var wg sync.WaitGroup
	sem := make(chan struct{}, serveConns)
	for k := 0; k < snapshotShards; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			st, err := cas.Open(filepath.Join(dir+"-shards", strconv.Itoa(k)))
			if err != nil {
				errs[k] = err
				return
			}
			srv, err := serve.New(serve.Config{Store: st})
			if err != nil {
				errs[k] = err
				return
			}
			defer srv.Close(context.Background())
			h := srv.Handler()
			for i := k; i < len(bodies); i += snapshotShards {
				rr := serveDirect(h, bodies[i])
				if rr.Code != http.StatusOK {
					errs[k] = fmt.Errorf("snapshot spec %d: status %d: %s", i, rr.Code, rr.Body.String())
					return
				}
				served[i] = rr.Body.Bytes()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for k := 0; k < snapshotShards; k++ {
		if err := linkTree(filepath.Join(dir+"-shards", strconv.Itoa(k)), dir); err != nil {
			return nil, err
		}
	}
	if err := os.RemoveAll(dir + "-shards"); err != nil {
		return nil, err
	}
	st, err := cas.Open(dir)
	if err != nil {
		return nil, err
	}
	if st.Len() != len(bodies) {
		return nil, fmt.Errorf("snapshot holds %d blobs, want %d", st.Len(), len(bodies))
	}
	return served, nil
}

// linkTree mirrors every regular file under src at the same relative
// path under dst as a hard link, replacing a file already there. Blob
// files are written once and never modified in place (the store
// renames new files into place), so a linked tree behaves as a copy
// without rewriting two thousand files — whose write-back would
// otherwise compete with the fsyncs being measured. Where links are not
// supported the file is copied.
func linkTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if err := os.Remove(target); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		if os.Link(path, target) == nil {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// serveState is one set-up server on a fresh copy of the snapshot.
type serveState struct {
	dir    string
	store  *cas.Store
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	openD  time.Duration
	served chan error
}

// startServe is the timed set-up: open the store on the copy, build the
// server with its default config, listen on loopback and serve.
func startServe(dir string, wrap func(http.Handler) http.Handler) (*serveState, error) {
	s := &serveState{dir: dir, served: make(chan error, 1)}
	t0 := time.Now()
	st, err := cas.Open(dir)
	s.openD = time.Since(t0)
	if err != nil {
		return nil, err
	}
	s.store = st
	if s.srv, err = serve.New(serve.Config{Store: st}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.srv.Close(context.Background())
		return nil, err
	}
	s.hs = &http.Server{Handler: wrap(s.srv.Handler())}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}}
	return s, nil
}

// stop tears the server down after a phase has drained, so nothing is
// in flight and the connections close at once.
func (s *serveState) stop() {
	s.client.CloseIdleConnections()
	_ = s.hs.Close()
	<-s.served
	_ = s.srv.Close(context.Background())
	_ = os.RemoveAll(s.dir)
}

// reply is one response as the closed-loop client saw it.
type reply struct {
	status int
	cache  string
	body   []byte
	lat    time.Duration
	err    error
}

// closedLoop sends every body over serveConns connections, each client
// sending its next request only after the previous one completed, and
// returns the replies in body order plus the phase's wall time.
func closedLoop(s *serveState, tr *tracer, bodies [][]byte, reqBase int64) ([]reply, time.Duration) {
	out := make([]reply, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) {
					return
				}
				out[i] = post(s, tr, bodies[i], reqBase+int64(i))
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

func post(s *serveState, tr *tracer, body []byte, req int64) reply {
	sp := tr.begin("serve.request", 0, req)
	t0 := time.Now()
	hreq, err := http.NewRequest(http.MethodPost, s.base+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	if tr != nil {
		hreq.Header.Set("X-Bench-Span", strconv.FormatInt(sp.ID, 10))
		hreq.Header.Set("X-Bench-Req", strconv.FormatInt(req, 10))
	}
	resp, err := s.client.Do(hreq)
	if err != nil {
		return reply{err: err, lat: time.Since(t0)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: b, lat: time.Since(t0), err: err}
	sp.Attr = r.cache
	tr.end(sp)
	return r
}

// tracedHandler records a span around every handler call, as the child
// of the client span named in the request, tagged with the X-Cache
// outcome the handler set.
func tracedHandler(tr *tracer, h http.Handler, name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
		s := tr.begin(name, parent, req)
		h.ServeHTTP(w, r)
		s.Attr = w.Header().Get("X-Cache")
		tr.end(s)
	})
}

// runServeRun times POST /v1/run on a store-backed server: a cold phase
// of distinct unseen specs, then a warm phase of skewed repeats.
func runServeRun(e *runEnv) error {
	rep := &e.rep
	rep.workUnit = "requests"
	in, err := genServeInputs(e.opts.seed)
	if err != nil {
		return err
	}
	// The snapshot is built once, untimed, and mirrored afresh before
	// every set-up, so each round's index — which every put rewrites —
	// starts at the same size.
	snap := filepath.Join(e.dir, "snapshot")
	snapBodies, err := buildSnapshot(snap, in.snapshot)
	if err != nil {
		return fmt.Errorf("building snapshot: %w", err)
	}
	ns, snapBytes, err := storeNamespace(snap)
	if err != nil {
		return err
	}
	// Reference bodies of the cold specs from a server with no store.
	refSrv, err := serve.New(serve.Config{})
	if err != nil {
		return err
	}
	refCold := make([][]byte, len(in.cold))
	for i, b := range in.cold {
		rr := serveDirect(refSrv.Handler(), b)
		if rr.Code != http.StatusOK {
			return fmt.Errorf("reference cold spec %d: status %d", i, rr.Code)
		}
		refCold[i] = rr.Body.Bytes()
	}
	_ = refSrv.Close(context.Background())

	copies := 0
	var copyDir string
	prepare := func() error {
		copies++
		copyDir = filepath.Join(e.dir, fmt.Sprintf("store-%d", copies))
		return linkTree(snap, copyDir)
	}
	var wrapTr *tracer
	wrap := func(h http.Handler) http.Handler {
		if wrapTr == nil {
			return h
		}
		return tracedHandler(wrapTr, h, "serve.handler")
	}
	var openMs []float64
	setup := func() (*serveState, error) {
		s, err := startServe(copyDir, wrap)
		if s != nil {
			openMs = append(openMs, float64(s.openD)/float64(time.Millisecond))
		}
		return s, err
	}
	last, err := timeSetups(rep, 7, 1, prepare, setup, (*serveState).stop)
	if err != nil {
		return err
	}
	last.stop()

	var coldLat, warmLat []float64
	var coldRPS, warmRPS []float64
	var hashUs, putMs, getUs []float64
	var entriesStart float64
	var handlerCold, handlerWarm spanQuery
	var httpUs []float64
	round := 0
	err = e.rounds(func(tr *tracer) (time.Duration, error) {
		round++
		if err := prepare(); err != nil {
			return 0, err
		}
		wrapTr = tr
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return 0, err
		}
		rep.setup = append(rep.setup, time.Since(t0).Seconds())
		before := s.store.Stats()
		mark, lo := tr.mark(), tr.now()
		cold, coldD := closedLoop(s, tr, in.cold, 1)
		warm, warmD := closedLoop(s, tr, in.warm, int64(1+len(in.cold)))
		hi := tr.now()
		metrics := s.srv.Metrics()
		after := s.store.Stats()
		s.stop()

		// Checks, outside the timed region.
		rep.attempted += int64(len(cold) + len(warm))
		failedBefore := rep.failed
		for i, r := range cold {
			switch {
			case r.err != nil || r.status != http.StatusOK:
				rep.fail("round %d cold %d: status %d %v", round, i, r.status, r.err)
			case r.cache != "miss":
				rep.fail("round %d cold %d: X-Cache %q, want miss", round, i, r.cache)
			case !bytes.Equal(r.body, refCold[i]):
				rep.fail("round %d cold %d: body differs from the store-less reference", round, i)
			}
		}
		for i, r := range warm {
			exp := refCold
			k := in.warmIdx[i]
			if k >= coldSpecs {
				exp, k = snapBodies, k-coldSpecs
			}
			switch {
			case r.err != nil || r.status != http.StatusOK:
				rep.fail("round %d warm %d: status %d %v", round, i, r.status, r.err)
			case r.cache != "hit":
				rep.fail("round %d warm %d: X-Cache %q, want hit", round, i, r.cache)
			case !bytes.Equal(r.body, exp[k]):
				rep.fail("round %d warm %d: body differs from the cold-phase or stored body", round, i)
			}
		}
		e.recordRound(tr, float64(len(cold)+len(warm)), coldD+warmD)
		if tr == nil {
			coldRPS = append(coldRPS, float64(len(cold))/coldD.Seconds())
			warmRPS = append(warmRPS, float64(len(warm))/warmD.Seconds())
			for _, r := range cold {
				coldLat = append(coldLat, float64(r.lat)/float64(time.Millisecond))
			}
			for _, r := range warm {
				warmLat = append(warmLat, float64(r.lat)/float64(time.Millisecond))
			}
			return coldD + warmD, nil
		}

		q := tr.since(mark).within(lo, hi)
		handlers := q.named("serve.handler")
		handlerCold = append(handlerCold, handlers.attr("miss")...)
		handlerWarm = append(handlerWarm, handlers.attr("hit")...)
		self := selfTimes(q)
		for _, c := range q.named("serve.request") {
			httpUs = append(httpUs, float64(self[c.ID])/float64(time.Microsecond))
		}
		rep.uncovered = append(rep.uncovered, 1-coverage(q, lo, hi))
		hits, disk := float64(metrics["cache_hits"]), float64(metrics["cache_disk_hits"])
		entriesStart = float64(before.Entries)
		rep.addRound(map[string]float64{
			"serve.requests.cold": float64(len(cold)),
			"serve.requests.warm": float64(len(warm)),
			"serve.failed":        float64(rep.failed - failedBefore),
			"serve.lru_hit_share": ratio(hits, hits+disk),
			"serve.runs_total":    float64(metrics["runs_total"]),
			"cas.puts":            float64(after.Puts - before.Puts),
			"cas.read_through":    disk,
		})
		// Direct replays of the layer calls on the same inputs, against
		// a fresh copy of the same snapshot.
		rh, rp, rg, err := replayStore(e, snap, ns, in, refCold)
		if err != nil {
			return 0, err
		}
		hashUs, putMs, getUs = append(hashUs, rh...), append(putMs, rp...), append(getUs, rg...)
		return coldD + warmD, nil
	})
	if err != nil {
		return err
	}
	rep.addExtra("cold_rps", "1/s", median(coldRPS), len(coldRPS))
	rep.addExtra("warm_rps", "1/s", median(warmRPS), len(warmRPS))
	rep.addPct("cold_p50_ms", "ms", coldLat, 50)
	rep.addPct("cold_p90_ms", "ms", coldLat, 90)
	rep.addPct("warm_p50_ms", "ms", warmLat, 50)
	rep.addPct("warm_p99_ms", "ms", warmLat, 99)
	if e.opts.trace {
		rep.finishLayers()
		rep.setLayerPct("serve.handler_ms_p50.cold", handlerCold, 50, time.Millisecond)
		rep.setLayerPct("serve.handler_us_p50.warm", handlerWarm, 50, time.Microsecond)
		rep.setLayerSamplesPct("serve.http_us_p50", httpUs, 50)
		rep.setLayerSamplesPct("serve.hash_us_p50", hashUs, 50)
		rep.setLayer("cas.open_ms", median(openMs))
		rep.setLayer("cas.entries_start", entriesStart)
		rep.setLayerSamplesPct("cas.put_ms_p50", putMs, 50)
		rep.setLayerSamplesPct("cas.put_ms_p90", putMs, 90)
		rep.setLayerSamplesPct("cas.get_us_p50", getUs, 50)
		fmt.Fprintf(e.out, "share: warm hits from the LRU %.1f%%, by store read-through %.1f%%\n",
			100*rep.layers["serve.lru_hit_share"], 100*(1-rep.layers["serve.lru_hit_share"]))
	}
	fmt.Fprintf(e.out, "store: snapshot of %d blobs, %d bytes; per round %d cold specs, %d warm requests over %d specs (repeated-input share %.1f%%), %d connections\n",
		snapshotBlobs, snapBytes, coldSpecs, warmRequests, coldSpecs+warmFromSnapshot,
		100*float64(warmRequests)/float64(warmRequests+coldSpecs), serveConns)
	return nil
}

// storeNamespace reads the namespace the serve layer stored the
// snapshot's results under, so the replays address the same keys, and
// the snapshot's size in bytes.
func storeNamespace(dir string) (string, int64, error) {
	st, err := cas.Open(dir)
	if err != nil {
		return "", 0, err
	}
	ents := st.Entries()
	if len(ents) == 0 {
		return "", 0, fmt.Errorf("snapshot store is empty")
	}
	for _, en := range ents {
		if en.Namespace != ents[0].Namespace {
			return "", 0, fmt.Errorf("snapshot store mixes namespaces %q and %q", ents[0].Namespace, en.Namespace)
		}
	}
	return ents[0].Namespace, st.Stats().Bytes, nil
}

// replayStore times Spec.Hash on the cold request bodies, then
// cas.Store.Put of every cold result and cas.Store.Get of every warm
// working-set key on a fresh copy of the snapshot.
func replayStore(e *runEnv, snap, ns string, in serveInputs, refCold [][]byte) (hashUs, putMs, getUs []float64, err error) {
	hashes := make([]string, len(in.cold))
	for i, b := range in.cold {
		spec, err := scenario.ReadSpec(bytes.NewReader(b))
		if err != nil {
			return nil, nil, nil, err
		}
		t0 := time.Now()
		hashes[i], err = spec.Hash()
		hashUs = append(hashUs, float64(time.Since(t0))/float64(time.Microsecond))
		if err != nil {
			return nil, nil, nil, err
		}
	}
	dir := filepath.Join(e.dir, "replay")
	if err := linkTree(snap, dir); err != nil {
		return nil, nil, nil, err
	}
	defer os.RemoveAll(dir)
	st, err := cas.Open(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for i, h := range hashes {
		t0 := time.Now()
		err := st.Put(ns, h, refCold[i])
		putMs = append(putMs, float64(time.Since(t0))/float64(time.Millisecond))
		if err != nil {
			return nil, nil, nil, err
		}
	}
	seen := map[int]bool{}
	for _, k := range in.warmIdx {
		if seen[k] {
			continue
		}
		seen[k] = true
		var body []byte
		if k < coldSpecs {
			body = in.cold[k]
		} else {
			body = in.snapshot[k-coldSpecs]
		}
		spec, err := scenario.ReadSpec(bytes.NewReader(body))
		if err != nil {
			return nil, nil, nil, err
		}
		h, err := spec.Hash()
		if err != nil {
			return nil, nil, nil, err
		}
		t0 := time.Now()
		_, ok, err := st.Get(ns, h)
		getUs = append(getUs, float64(time.Since(t0))/float64(time.Microsecond))
		if err != nil || !ok {
			return nil, nil, nil, fmt.Errorf("replayed get of %s: found=%v err=%v", h, ok, err)
		}
	}
	return hashUs, putMs, getUs, nil
}
