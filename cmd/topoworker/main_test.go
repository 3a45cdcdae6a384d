package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"selfishnet/internal/fabric"
	"selfishnet/internal/scenario"
	"selfishnet/internal/serve"
)

// TestWorkerDrivesFabricSweep runs the real worker loop (the same
// run() main calls) against a fabric-backed server and checks the
// completed sweep matches the single-process engine byte-for-byte.
func TestWorkerDrivesFabricSweep(t *testing.T) {
	coord := fabric.NewCoordinator(fabric.Config{Lease: 2 * time.Second})
	srv, err := serve.New(serve.Config{Workers: 1, Fabric: coord})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- run(ctx, []string{"-coordinator", ts.URL, "-name", "test-worker", "-par", "1", "-poll", "5ms"})
	}()

	sweep := `{
		"base": {"quick": true, "metric": {"family": "uniform", "n": 6}, "game": {"alpha": 1}},
		"alphas": [1, 2],
		"seeds": [1, 2]
	}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(sweep))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var doc serve.JobDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.State == serve.JobDone {
			break
		}
		if doc.State == serve.JobFailed || doc.State == serve.JobCancelled {
			t.Fatalf("job settled as %s (%s)", doc.State, doc.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", doc.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The result endpoint serves the exact table bytes (the job doc
	// embeds a re-indented copy).
	resp, err = http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	result, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, result)
	}

	sw, err := scenario.ReadSweep(strings.NewReader(sweep))
	if err != nil {
		t.Fatal(err)
	}
	table, err := sw.Run(scenario.Params{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := table.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(result, want.Bytes()) {
		t.Errorf("worker-executed sweep differs from the engine:\n%s\nvs\n%s", result, want.Bytes())
	}

	// The worker is a forever-process: it must still be polling, and
	// must exit promptly (with the context error) when stopped.
	select {
	case err := <-workerDone:
		t.Fatalf("worker exited mid-test: %v", err)
	default:
	}
	cancel()
	select {
	case err := <-workerDone:
		if err != context.Canceled {
			t.Errorf("worker exit: %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not stop on context cancellation")
	}
}

func TestWorkerFlagErrors(t *testing.T) {
	if err := run(context.Background(), []string{"-bogus"}); err == nil {
		t.Error("unknown flag should error")
	}
	if err := run(context.Background(), []string{"stray"}); err == nil {
		t.Error("stray argument should error")
	}
	if err := run(context.Background(), []string{"-par", "-1"}); err == nil || !strings.Contains(err.Error(), "-par -1") {
		t.Errorf("-par -1: err = %v, want a usage error naming the flag", err)
	}
}
