package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"selfishnet/internal/export"
	"selfishnet/internal/scenario"
)

// FuzzServeRun posts fuzzed bodies to POST /v1/run with fuzzed ?quick=
// and ?seed= values and an X-Run-Deadline-Ms header. The server's
// runSpec seam returns a fixed table (or, like the engine at its first
// step, the context's error once the deadline has passed), so no
// dynamics run and every input costs microseconds. Every answer must be
// one of the documented statuses, no handler may panic, a 200 may come
// only for a body scenario.ReadSpec accepts, and a non-200 must leave
// the result cache's entry count unchanged. The server has a
// RunTimeout, and the context a run receives must carry a deadline no
// later than the call time plus RunTimeout, whatever the header says.
// The body cap is 512 bytes, so 413 is reachable too. The seed corpus
// is under testdata/fuzz/FuzzServeRun.
func FuzzServeRun(f *testing.F) {
	const runTimeout = time.Minute
	s, err := New(Config{MaxBodyBytes: 512, RunTimeout: runTimeout})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			f.Errorf("Close: %v", err)
		}
	})
	table := &export.Table{Title: "fixed", Headers: []string{"k", "v"}}
	table.AddRow("a", "1")
	// deadlineErr records what was wrong with the last run's deadline.
	var mu sync.Mutex
	var deadlineErr error
	s.runSpec = func(ctx context.Context, _ scenario.Spec) (*export.Table, error) {
		called := time.Now()
		dl, ok := ctx.Deadline()
		mu.Lock()
		switch {
		case !ok:
			deadlineErr = errors.New("the run's context has no deadline")
		case dl.After(called.Add(runTimeout)):
			deadlineErr = fmt.Errorf("the run's deadline is %v after the call, past RunTimeout %v", dl.Sub(called), runTimeout)
		}
		mu.Unlock()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return table, nil
	}
	h := s.Handler()
	documented := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true,
		http.StatusRequestEntityTooLarge: true, http.StatusUnprocessableEntity: true,
		http.StatusTooManyRequests: true, http.StatusServiceUnavailable: true,
		http.StatusGatewayTimeout: true,
	}
	f.Fuzz(func(t *testing.T, body []byte, quick, seed, deadline string) {
		q := url.Values{}
		if quick != "" {
			q.Set("quick", quick)
		}
		if seed != "" {
			q.Set("seed", seed)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/run?"+q.Encode(), bytes.NewReader(body))
		if deadline != "" {
			req.Header.Set("X-Run-Deadline-Ms", deadline)
		}
		before := s.cache.stats().Entries
		mu.Lock()
		deadlineErr = nil
		mu.Unlock()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		mu.Lock()
		err := deadlineErr
		mu.Unlock()
		if err != nil {
			t.Fatalf("X-Run-Deadline-Ms %q: %v", deadline, err)
		}
		switch code := rec.Code; {
		case !documented[code]:
			t.Fatalf("status %d is not documented: %s", code, rec.Body.Bytes())
		case code == http.StatusOK:
			if _, err := scenario.ReadSpec(bytes.NewReader(body)); err != nil {
				t.Fatalf("200 for a body ReadSpec refuses (%v): %q", err, body)
			}
		default:
			if after := s.cache.stats().Entries; after != before {
				t.Fatalf("status %d changed the cache's entry count from %d to %d", code, before, after)
			}
		}
	})
}
