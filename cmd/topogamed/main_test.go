package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// startServer boots topogamed on a loopback port and returns its base
// URL plus a shutdown function that triggers the graceful path and
// waits for run to return.
func startServer(t *testing.T, extraArgs ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	go func() { done <- run(ctx, args, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr, func() error {
			cancel()
			select {
			case err := <-done:
				return err
			case <-time.After(60 * time.Second):
				t.Fatal("shutdown did not complete")
				return nil
			}
		}
	case err := <-done:
		cancel()
		t.Fatalf("server exited before ready: %v", err)
		return "", nil
	}
}

// TestTopogamedLifecycle drives the binary end to end: healthz,
// catalog, a cached run (byte-identical second response), and a
// graceful SIGTERM-equivalent shutdown with state persistence.
func TestTopogamedLifecycle(t *testing.T) {
	state := filepath.Join(t.TempDir(), "jobs.json")
	base, shutdown := startServer(t, "-workers", "1", "-state", state)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	catalog, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(catalog, []byte("e4-poa")) {
		t.Errorf("catalog missing e4-poa: %s", catalog)
	}

	spec := `{"experiment": "e2-fig1", "quick": true}`
	var bodies [][]byte
	for i := 0; i < 2; i++ {
		resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: %d %s", i, resp.StatusCode, b)
		}
		bodies = append(bodies, b)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("repeated run not byte-identical")
	}

	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}

	// The state file exists and a fresh boot loads it.
	base2, shutdown2 := startServer(t, "-state", state)
	resp, err = http.Get(base2 + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := shutdown2(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestTopogamedFlagErrors(t *testing.T) {
	if err := run(context.Background(), []string{"-bogus"}, nil); err == nil {
		t.Error("unknown flag should error")
	}
	if err := run(context.Background(), []string{"stray"}, nil); err == nil {
		t.Error("stray argument should error")
	}
	if err := run(context.Background(), []string{"-addr", "256.256.256.256:1"}, nil); err == nil {
		t.Error("unbindable address should error")
	}
	if err := run(context.Background(), []string{"-fabric-workers", "2"}, nil); err == nil {
		t.Error("-fabric-workers without -fabric should error")
	}
	for _, flag := range []string{"-run-par", "-point-par"} {
		err := run(context.Background(), []string{flag, "-1"}, nil)
		if err == nil || !strings.Contains(err.Error(), flag+" -1") {
			t.Errorf("%s -1: err = %v, want a usage error naming the flag", flag, err)
		}
	}
}

// TestTopogamedFabricSweep boots the daemon in fabric mode with
// in-process workers and a persistent store, runs a sweep, and then
// proves the restart criterion: a fresh daemon over the same store
// serves the re-submitted sweep from blobs with zero re-executions.
func TestTopogamedFabricSweep(t *testing.T) {
	casDir := filepath.Join(t.TempDir(), "cas")
	fabricArgs := []string{"-fabric", "-fabric-workers", "2", "-cas", casDir}
	base, shutdown := startServer(t, fabricArgs...)

	sweep := `{
		"base": {"quick": true, "metric": {"family": "uniform", "n": 6}, "game": {"alpha": 1}},
		"alphas": [1, 2],
		"seeds": [1, 2]
	}`
	doc := postJSON(t, base+"/v1/sweep", sweep, http.StatusAccepted)
	result1 := waitResult(t, base, doc["id"].(string))
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Restart over the same store: 200 (served from store), identical
	// bytes, fabric executed nothing.
	base2, shutdown2 := startServer(t, fabricArgs...)
	doc2 := postJSON(t, base2+"/v1/sweep", sweep, http.StatusOK)
	result2 := waitResult(t, base2, doc2["id"].(string))
	if !bytes.Equal(result1, result2) {
		t.Error("store-served sweep differs from the original run")
	}
	resp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var m map[string]int64
	if err := json.Unmarshal(metrics, &m); err != nil {
		t.Fatal(err)
	}
	if m["fabric_points_executed"] != 0 {
		t.Errorf("fabric_points_executed = %d after restart, want 0", m["fabric_points_executed"])
	}
	if m["jobs_from_store"] != 1 {
		t.Errorf("jobs_from_store = %d, want 1", m["jobs_from_store"])
	}
	if err := shutdown2(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// postJSON posts a body, asserts the status, and decodes the response.
func postJSON(t *testing.T, url, body string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s: %d %s, want %d", url, resp.StatusCode, b, wantStatus)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("decoding %s: %v", b, err)
	}
	return doc
}

// waitResult polls a job until done and returns its result bytes.
func waitResult(t *testing.T, base, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		doc := getJSON(t, base+"/v1/jobs/"+id)
		switch doc["state"] {
		case "done":
			resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("result: %d %s", resp.StatusCode, b)
			}
			return b
		case "failed", "cancelled":
			t.Fatalf("job %s settled as %v (%v)", id, doc["state"], doc["error"])
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %v", id, doc["state"])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("decoding %s: %v", b, err)
	}
	return doc
}

// TestOverloadSmoke is the CI overload smoke: a burst of concurrent
// /v1/run clients against a daemon with a one-slot admission gate must
// produce only 200s and 429s (Retry-After on every 429), a cached
// re-read must still flow, and the SIGTERM-equivalent drain must
// complete cleanly afterwards.
func TestOverloadSmoke(t *testing.T) {
	base, shutdown := startServer(t,
		"-workers", "1", "-run-concurrency", "1", "-run-queue", "1")

	spec := func(seed int) string {
		return `{"metric": {"family": "uniform", "n": 8}, "game": {"alpha": 2}, "quick": true, "seed": ` +
			strconv.Itoa(seed) + `}`
	}

	const clients = 8
	statuses := make(chan int, clients)
	var burst sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		burst.Add(1)
		go func(c int) {
			defer burst.Done()
			<-start
			resp, err := http.Post(base+"/v1/run", "application/json",
				strings.NewReader(spec(c)))
			if err != nil {
				statuses <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests &&
				resp.Header.Get("Retry-After") == "" {
				statuses <- -2
				return
			}
			statuses <- resp.StatusCode
		}(c)
	}
	close(start)
	burst.Wait()
	close(statuses)

	ok := 0
	for st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
		case -2:
			t.Error("429 without Retry-After")
		default:
			t.Fatalf("burst got status %d, want only 200 or 429", st)
		}
	}
	if ok == 0 {
		t.Fatal("burst produced no successful responses")
	}

	// A spec that succeeded is now cached; a re-read must hit even
	// though the gate was just saturated.
	resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(spec(0)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-burst cached read: %d, want 200", resp.StatusCode)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown after overload: %v", err)
	}
}
