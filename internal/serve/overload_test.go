package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selfishnet/internal/export"
	"selfishnet/internal/scenario"
)

// specRunner mirrors the Server.runSpec seam.
type specRunner func(ctx context.Context, spec scenario.Spec) (*export.Table, error)

// installRunner makes the server's runSpec seam hot-swappable through an
// atomic pointer, so tests can switch between the real engine and
// controllable stubs without racing in-flight handlers. Must be called
// before the server takes traffic. Returns the swap pointer and the
// original (real-engine) runner.
func installRunner(s *Server) (*atomic.Pointer[specRunner], specRunner) {
	orig := specRunner(s.runSpec)
	var p atomic.Pointer[specRunner]
	p.Store(&orig)
	s.runSpec = func(ctx context.Context, spec scenario.Spec) (*export.Table, error) {
		return (*p.Load())(ctx, spec)
	}
	return &p, orig
}

// seededSpec returns a cheap quick spec distinct per seed (distinct
// hash, so no accidental cache hits between test cases).
func seededSpec(seed int) string {
	return fmt.Sprintf(`{"metric": {"family": "uniform", "n": 8}, "game": {"alpha": 2}, "quick": true, "seed": %d}`, seed)
}

// gateRunner is a stub runner that signals each start, then blocks
// until the gate opens (delegating to the real engine) or the request
// context fires (returning its error, as the real engine would).
func gateRunner(orig specRunner, started chan<- struct{}, gate <-chan struct{}) specRunner {
	return func(ctx context.Context, spec scenario.Spec) (*export.Table, error) {
		started <- struct{}{}
		select {
		case <-gate:
			return orig(ctx, spec)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func healthStatus(t *testing.T, baseURL string) string {
	t.Helper()
	resp, body := get(t, baseURL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	var doc struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Status
}

func waitHealth(t *testing.T, baseURL, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got := healthStatus(t, baseURL); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reached %q (last: %q)", want, healthStatus(t, baseURL))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// asyncPost fires a POST in a goroutine and returns a channel with the
// response (body drained and closed; nil on transport error — the
// receiving test fails on that).
func asyncPost(url, body string) <-chan *http.Response {
	ch := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			ch <- nil
			return
		}
		resp.Body.Close()
		ch <- resp
	}()
	return ch
}

// TestRunAdmissionSaturation drives the admission gate through its
// three answers: in-flight, queued (the load level turns shedding at a
// full queue), and 429 + Retry-After beyond it — while a prewarmed
// cached spec keeps answering 200 hits throughout.
func TestRunAdmissionSaturation(t *testing.T) {
	s, ts := newTestServer(t, Config{RunConcurrency: 1, RunQueueDepth: 1})
	runner, orig := installRunner(s)

	cached := seededSpec(100)
	if resp, body := post(t, ts.URL+"/v1/run", cached); resp.StatusCode != http.StatusOK {
		t.Fatalf("prewarm: %d %s", resp.StatusCode, body)
	}

	started := make(chan struct{}, 4)
	gate := make(chan struct{})
	gated := gateRunner(orig, started, gate)
	runner.Store(&gated)

	respA := asyncPost(ts.URL+"/v1/run", seededSpec(101))
	<-started // A holds the only slot
	respB := asyncPost(ts.URL+"/v1/run", seededSpec(102))
	waitHealth(t, ts.URL, levelShedding) // B fills the queue: waiters == waitCap

	respC, bodyC := post(t, ts.URL+"/v1/run", seededSpec(103))
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated run: %d %s, want 429", respC.StatusCode, bodyC)
	}
	if respC.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Cached reads bypass admission: a hit flows even while shedding.
	respD, _ := post(t, ts.URL+"/v1/run", cached)
	if respD.StatusCode != http.StatusOK || respD.Header.Get("X-Cache") != "hit" {
		t.Fatalf("cached read under saturation: %d, X-Cache %q, want 200 hit",
			respD.StatusCode, respD.Header.Get("X-Cache"))
	}

	close(gate)
	for _, ch := range []<-chan *http.Response{respA, respB} {
		if resp := <-ch; resp == nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("gated run finished %+v, want 200", resp)
		}
	}
	waitHealth(t, ts.URL, levelOK)
	m := s.Metrics()
	if m["shed_saturated"] != 1 {
		t.Errorf("shed_saturated = %d, want 1", m["shed_saturated"])
	}
	if m["run_errors"] != 0 {
		t.Errorf("run_errors = %d, want 0", m["run_errors"])
	}
}

// TestRunBrownoutShedsExpensive pins the brownout ladder: once the
// load level degrades, a spec whose cost estimate exceeds ShedCost is
// rejected with 429 before it queues, while an equally uncached cheap
// spec is still admitted.
func TestRunBrownoutShedsExpensive(t *testing.T) {
	s, ts := newTestServer(t, Config{RunConcurrency: 1, RunQueueDepth: 2, ShedCost: 50000})
	runner, orig := installRunner(s)
	started := make(chan struct{}, 4)
	gate := make(chan struct{})
	gated := gateRunner(orig, started, gate)
	runner.Store(&gated)

	respA := asyncPost(ts.URL+"/v1/run", seededSpec(201))
	<-started
	respB := asyncPost(ts.URL+"/v1/run", seededSpec(202))
	waitHealth(t, ts.URL, levelDegraded) // one waiter = half-full queue

	// n=64 quick: cost 64·1·1500 = 96000 > ShedCost → shed.
	expensive := `{"metric": {"family": "uniform", "n": 64}, "game": {"alpha": 2}, "quick": true}`
	respE, bodyE := post(t, ts.URL+"/v1/run", expensive)
	if respE.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expensive spec under degraded load: %d %s, want 429", respE.StatusCode, bodyE)
	}
	if respE.Header.Get("Retry-After") == "" {
		t.Error("shed response without Retry-After")
	}

	// A cheap spec (cost 12000 < ShedCost) still queues: it lands the
	// last queue slot rather than being shed.
	respC := asyncPost(ts.URL+"/v1/run", seededSpec(203))
	waitHealth(t, ts.URL, levelShedding)

	close(gate)
	for _, ch := range []<-chan *http.Response{respA, respB, respC} {
		if resp := <-ch; resp == nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("gated run finished %+v, want 200", resp)
		}
	}
	m := s.Metrics()
	if m["shed_expensive"] != 1 {
		t.Errorf("shed_expensive = %d, want 1", m["shed_expensive"])
	}
	if m["shed_saturated"] != 0 {
		t.Errorf("shed_saturated = %d, want 0", m["shed_saturated"])
	}
}

// TestRunDeadline pins the deadline ladder: a run that outlives
// -run-timeout answers 504 (counted as deadline_exceeded, not as a run
// error), a client X-Run-Deadline-Ms only ever tightens the server
// bound, and a malformed header is a 400.
func TestRunDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{RunTimeout: 30 * time.Millisecond})
	runner, _ := installRunner(s)
	hang := specRunner(func(ctx context.Context, spec scenario.Spec) (*export.Table, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	runner.Store(&hang)

	resp, body := post(t, ts.URL+"/v1/run", seededSpec(301))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("overlong run: %d %s, want 504", resp.StatusCode, body)
	}

	// A client deadline far beyond the server's is clamped down: the
	// request still times out at ~30ms, not in ten minutes.
	req, err := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(seededSpec(302)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Run-Deadline-Ms", "600000")
	respClamp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	respClamp.Body.Close()
	if respClamp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("clamped client deadline: %d, want 504", respClamp.StatusCode)
	}

	req, err = http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(seededSpec(303)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Run-Deadline-Ms", "not-a-number")
	respBad, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	respBad.Body.Close()
	if respBad.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed deadline header: %d, want 400", respBad.StatusCode)
	}

	m := s.Metrics()
	if m["deadline_exceeded"] != 2 {
		t.Errorf("deadline_exceeded = %d, want 2", m["deadline_exceeded"])
	}
	if m["run_errors"] != 0 {
		t.Errorf("run_errors = %d, want 0 (deadlines are not run errors)", m["run_errors"])
	}
}

// TestRunDeadlineHeaderOverflow pins that no X-Run-Deadline-Ms header
// loosens the server's RunTimeout, however large: a value past
// time.Duration's range (about 9.22e12 ms) once wrapped negative and
// left the run with no deadline at all. With RunTimeout 50 ms and a
// runner that waits for its context, no header, 1000, 10000000000000
// and 9223372036854775807 all answer 504 with the run's deadline at
// most 50 ms after the call, and 20 still tightens it to 20 ms.
func TestRunDeadlineHeaderOverflow(t *testing.T) {
	const runTimeout = 50 * time.Millisecond
	s, ts := newTestServer(t, Config{RunTimeout: runTimeout})
	runner, _ := installRunner(s)
	// budgets carries each run's time to its deadline, measured when
	// the runner is called; -1 means the context had no deadline.
	budgets := make(chan time.Duration, 1)
	hang := specRunner(func(ctx context.Context, spec scenario.Spec) (*export.Table, error) {
		left := time.Duration(-1)
		if dl, ok := ctx.Deadline(); ok {
			left = time.Until(dl)
		}
		budgets <- left
		<-ctx.Done()
		return nil, ctx.Err()
	})
	runner.Store(&hang)
	// A run that escaped its deadline would hang until the client gives
	// up, so the client's own timeout turns that into a failure.
	client := &http.Client{Timeout: 10 * time.Second}
	for k, c := range []struct {
		header string
		bound  time.Duration
	}{
		{"", runTimeout},
		{"1000", runTimeout},
		{"10000000000000", runTimeout},
		{"9223372036854775807", runTimeout},
		{"20", 20 * time.Millisecond},
	} {
		req, err := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(seededSpec(700+k)))
		if err != nil {
			t.Fatal(err)
		}
		if c.header != "" {
			req.Header.Set("X-Run-Deadline-Ms", c.header)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("X-Run-Deadline-Ms %q: %v", c.header, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("X-Run-Deadline-Ms %q: %d, want 504", c.header, resp.StatusCode)
		}
		select {
		case left := <-budgets:
			if left < 0 || left > c.bound {
				t.Errorf("X-Run-Deadline-Ms %q: the run's deadline was %v after the call (-1ns: none), want at most %v", c.header, left, c.bound)
			}
		default:
			t.Fatalf("X-Run-Deadline-Ms %q: the runner was never called", c.header)
		}
	}
}

// TestRunAllAdmission pins /v1/runall to the same overload ladder as
// /v1/run: with the slot and the queue held, an uncached runall answers
// 429 + Retry-After (counted as shed_saturated) while a fully cached
// one still streams, and a first miss that outlives -run-timeout
// answers 504 (counted as deadline_exceeded).
func TestRunAllAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{RunConcurrency: 1, RunQueueDepth: 1})
	runner, orig := installRunner(s)

	cachedReq := `{"ids": ["e2-fig1"], "quick": true}`
	respW, want := post(t, ts.URL+"/v1/runall", cachedReq)
	if respW.StatusCode != http.StatusOK {
		t.Fatalf("prewarm runall: %d %s", respW.StatusCode, want)
	}

	started := make(chan struct{}, 4)
	gate := make(chan struct{})
	gated := gateRunner(orig, started, gate)
	runner.Store(&gated)
	respA := asyncPost(ts.URL+"/v1/run", seededSpec(601))
	<-started // A holds the only slot
	respB := asyncPost(ts.URL+"/v1/run", seededSpec(602))
	waitHealth(t, ts.URL, levelShedding) // B fills the queue

	respC, bodyC := post(t, ts.URL+"/v1/runall", `{"ids": ["e4-poa"], "quick": true}`)
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated runall miss: %d %s, want 429", respC.StatusCode, bodyC)
	}
	if respC.Header.Get("Retry-After") == "" {
		t.Error("runall 429 without Retry-After")
	}
	respD, bodyD := post(t, ts.URL+"/v1/runall", cachedReq)
	if respD.StatusCode != http.StatusOK || !bytes.Equal(bodyD, want) {
		t.Fatalf("cached runall under saturation: %d, want 200 with the prewarmed bytes\n%s", respD.StatusCode, bodyD)
	}

	close(gate)
	for _, ch := range []<-chan *http.Response{respA, respB} {
		if resp := <-ch; resp == nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("gated run finished %+v, want 200", resp)
		}
	}
	if m := s.Metrics(); m["shed_saturated"] != 1 || m["run_errors"] != 0 {
		t.Errorf("shed_saturated = %d, run_errors = %d, want 1 and 0", m["shed_saturated"], m["run_errors"])
	}

	s2, ts2 := newTestServer(t, Config{RunTimeout: 30 * time.Millisecond})
	runner2, _ := installRunner(s2)
	hang := specRunner(func(ctx context.Context, spec scenario.Spec) (*export.Table, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	runner2.Store(&hang)
	if resp, body := post(t, ts2.URL+"/v1/runall", `{"ids": ["e4-poa"], "quick": true}`); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("overlong runall miss: %d %s, want 504", resp.StatusCode, body)
	}
	if m := s2.Metrics(); m["deadline_exceeded"] != 1 || m["run_errors"] != 0 {
		t.Errorf("deadline_exceeded = %d, run_errors = %d, want 1 and 0", m["deadline_exceeded"], m["run_errors"])
	}
}

// TestRunClientDisconnect pins the disconnect path: a client that goes
// away mid-run aborts the evaluation (counted as disconnect_aborts),
// and the aborted run never poisons the cache — the same spec re-posted
// afterwards is a fresh miss that then caches normally.
func TestRunClientDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	runner, orig := installRunner(s)
	started := make(chan struct{}, 1)
	hang := specRunner(func(ctx context.Context, spec scenario.Spec) (*export.Table, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	runner.Store(&hang)

	spec := seededSpec(401)
	cctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(cctx, "POST", ts.URL+"/v1/run", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, derr := http.DefaultClient.Do(req)
		if derr == nil {
			resp.Body.Close()
		}
		errCh <- derr
	}()
	<-started
	cancel() // the client disconnects mid-evaluation
	if derr := <-errCh; derr == nil {
		t.Fatal("disconnected request unexpectedly got a response")
	}

	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics()["disconnect_aborts"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnect_aborts never incremented")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Back on the real engine: the aborted spec must be a clean miss,
	// then a hit — nothing partial was cached.
	runner.Store(&orig)
	resp1, body1 := post(t, ts.URL+"/v1/run", spec)
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("re-post after disconnect: %d X-Cache %q %s, want 200 miss",
			resp1.StatusCode, resp1.Header.Get("X-Cache"), body1)
	}
	resp2, _ := post(t, ts.URL+"/v1/run", spec)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second re-post: %d X-Cache %q, want 200 hit",
			resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
}

// TestShutdownRejectsNewIntake pins satellite graceful-shutdown
// behavior at the serve layer: once BeginShutdown is called, new
// /v1/run, /v1/runall and /v1/sweep submissions answer 503 +
// Retry-After and /healthz reports shedding — while a job already in
// flight keeps running and drains to done.
func TestShutdownRejectsNewIntake(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	jstarted := make(chan struct{})
	jgate := make(chan struct{})
	origRunner := s.jobs.runner
	s.jobs.runner = func(ctx context.Context, sw scenario.Sweep, progress func(done, total int)) (*export.Table, []scenario.FailedPoint, error) {
		close(jstarted)
		select {
		case <-jgate:
		case <-ctx.Done():
		}
		return origRunner(ctx, sw, progress)
	}

	doc := submitSweep(t, ts.URL, sweepBody())
	<-jstarted // the job is in flight before shutdown begins

	s.BeginShutdown()
	for _, ep := range []struct{ path, body string }{
		{"/v1/run", seededSpec(501)},
		{"/v1/runall", `{"ids": ["e4-poa"], "quick": true}`},
		{"/v1/sweep", sweepBody()},
	} {
		resp, body := post(t, ts.URL+ep.path, ep.body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("POST %s during drain: %d %s, want 503", ep.path, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("POST %s during drain: 503 without Retry-After", ep.path)
		}
	}
	if got := healthStatus(t, ts.URL); got != levelShedding {
		t.Errorf("healthz during drain = %q, want %q", got, levelShedding)
	}
	if m := s.Metrics(); m["shutdown_rejected"] != 3 {
		t.Errorf("shutdown_rejected = %d, want 3", m["shutdown_rejected"])
	}

	// The in-flight job is unaffected by the intake stop: it drains.
	close(jgate)
	if final := waitJob(t, ts.URL, doc.ID); final.State != JobDone {
		t.Fatalf("in-flight job settled as %s (%s), want done", final.State, final.Error)
	}
}

// TestAdmitterFIFOAndGiveback unit-tests the gate: FIFO slot handover,
// saturation, waiter cancellation, and — via a concurrent hammer on the
// cancel-vs-handover race — that no slot is ever leaked.
func TestAdmitterFIFOAndGiveback(t *testing.T) {
	a := newAdmitter(1, 2)
	release1, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	got2 := make(chan func(), 1)
	go func() {
		r, aerr := a.acquire(context.Background())
		if aerr != nil {
			t.Errorf("queued acquire: %v", aerr)
		}
		got2 <- r
	}()
	waitWaiters := func(n int) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			a.mu.Lock()
			w := len(a.waiters)
			a.mu.Unlock()
			if w == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("never reached %d waiters", n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitWaiters(1)

	// A cancelled waiter leaves the queue without consuming a slot.
	cctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, aerr := a.acquire(cctx)
		cancelled <- aerr
	}()
	waitWaiters(2)
	cancel()
	if aerr := <-cancelled; aerr != context.Canceled {
		t.Fatalf("cancelled waiter: %v, want context.Canceled", aerr)
	}
	waitWaiters(1)

	release1() // hands the slot to the FIFO head
	release2 := <-got2
	release2()
	release2() // idempotent: a double release must not free two slots
	if _, err := a.acquire(context.Background()); err != nil {
		t.Fatalf("slot not recovered after release: %v", err)
	} else {
		a.release()
	}

	// Hammer the handover-vs-cancel race: however the timing lands, the
	// gate must end with zero in-flight slots and an empty queue.
	h := newAdmitter(2, 4)
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, hcancel := context.WithTimeout(context.Background(), time.Duration(i%3)*time.Millisecond)
			defer hcancel()
			r, aerr := h.acquire(ctx)
			if aerr == nil {
				time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
				r()
			}
		}(i)
	}
	wg.Wait()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.inflight != 0 || len(h.waiters) != 0 {
		t.Fatalf("leaked admission state: inflight %d, waiters %d", h.inflight, len(h.waiters))
	}
}
