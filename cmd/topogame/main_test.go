package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"selfishnet/internal/scenario"
)

func TestTopogameCommands(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Errorf("list: %v", err)
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help: %v", err)
	}
	if err := run(nil); err == nil {
		t.Error("missing command should error")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown command should error")
	}
	if err := run([]string{"run"}); err == nil {
		t.Error("run without ids should error")
	}
	if err := run([]string{"run", "not-an-experiment"}); err == nil {
		t.Error("unknown experiment should error")
	}
}

// TestTopogameRejectsNegativePar: a negative -par is a usage error
// naming the flag on every subcommand that takes it, not "all cores".
func TestTopogameRejectsNegativePar(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-par", "-5", "e4-poa"},
		{"spec", "-par", "-5", "testdata/spec_example.json"},
		{"sweep", "-par", "-5", "testdata/sweep_smoke.json"},
		{"churn", "-par", "-5"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "-par -5") {
			t.Errorf("%v: err = %v, want a usage error naming -par -5", args, err)
		}
	}
}

// TestTopogameRejectsIgnoredInput: input a command would ignore is a
// usage error. certify reads neither -quick nor -par, so any value of
// either is rejected; it folds at a fixed band, so -band is an unknown
// flag; and list takes no arguments.
func TestTopogameRejectsIgnoredInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"certify", "-par", "-5"}, "-par"},
		{[]string{"certify", "-n", "64", "-par", "7"}, "-par"},
		{[]string{"certify", "-n", "64", "-quick"}, "-quick"},
		{[]string{"certify", "-quick", "-par", "7", "-n", "64"}, "-quick"},
		{[]string{"certify", "-n", "64", "-band", "64"}, "-band"},
		{[]string{"list", "foo", "bar"}, `"foo"`},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want a usage error naming %s", tc.args, err, tc.want)
		}
	}
	out := captureStdout(t, func() error {
		return run([]string{"certify", "-n", "64", "-csv", "-seed", "5", "-samples", "8"})
	})
	if !bytes.HasPrefix(out, []byte("topology,n,alpha,band,nash,")) {
		t.Fatalf("certify -csv output:\n%s", out)
	}
}

func TestTopogameRunQuick(t *testing.T) {
	// One representative experiment in quick+CSV mode (stdout goes to
	// the test log, which is fine).
	if err := run([]string{"run", "-quick", "-csv", "e4-poa"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run([]string{"run", "-quick", "-seed", "9", "e2-fig1", "e3-cost"}); err != nil {
		t.Fatalf("multi run: %v", err)
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns everything written.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	old := os.Stdout
	rp, wp, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = wp
	defer func() { os.Stdout = old }()
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(rp)
		done <- b
	}()
	errRun := fn()
	wp.Close()
	out := <-done
	os.Stdout = old
	if errRun != nil {
		t.Fatal(errRun)
	}
	return out
}

// TestTopogameParOutputIdentical asserts the CLI-level determinism
// guarantee: `run -par 1` and `run -par 8` print byte-identical output.
func TestTopogameParOutputIdentical(t *testing.T) {
	args := []string{"run", "-quick", "-csv", "-seed", "3", "e2-fig1", "e4-poa", "e6-cycle", "e8-dyn"}
	seq := captureStdout(t, func() error { return run(append([]string{args[0], "-par", "1"}, args[1:]...)) })
	par := captureStdout(t, func() error { return run(append([]string{args[0], "-par", "8"}, args[1:]...)) })
	if len(seq) == 0 {
		t.Fatal("no output captured")
	}
	if !bytes.Equal(seq, par) {
		t.Fatalf("-par 1 and -par 8 outputs differ (%d vs %d bytes)", len(seq), len(par))
	}
}

// TestTopogameChurn pins the churn subcommand: the quick smoke run
// prints one CSV table with the churn measures, deterministic for a
// seed, and rejects stray arguments and unknown repair strategies.
func TestTopogameChurn(t *testing.T) {
	args := []string{"churn", "-quick", "-csv", "-seed", "3"}
	out := captureStdout(t, func() error { return run(args) })
	if len(out) == 0 {
		t.Fatal("no churn output captured")
	}
	for _, col := range []string{"churn-events", "restabilize-mean", "overshoot", "tail-stable"} {
		if !bytes.Contains(out, []byte(col)) {
			t.Errorf("churn output lacks column %q:\n%s", col, out)
		}
	}
	if again := captureStdout(t, func() error { return run(args) }); !bytes.Equal(out, again) {
		t.Fatal("churn output not deterministic for a fixed seed")
	}
	if err := run([]string{"churn", "stray.json"}); err == nil {
		t.Fatal("churn with a file argument should error")
	}
	if err := run([]string{"churn", "-repair", "wishful"}); err == nil {
		t.Fatal("unknown repair strategy should error")
	}
}

// TestTopogameRunJSON asserts the -json output of run is one JSON array
// of table documents, parseable as a single document at any id count.
func TestTopogameRunJSON(t *testing.T) {
	type tableDoc struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	out := captureStdout(t, func() error {
		return run([]string{"run", "-quick", "-json", "e4-poa"})
	})
	var docs []tableDoc
	if err := json.Unmarshal(out, &docs); err != nil {
		t.Fatalf("run -json is not valid JSON: %v\n%s", err, out)
	}
	if len(docs) != 1 || docs[0].Title == "" || len(docs[0].Headers) == 0 || len(docs[0].Rows) == 0 {
		t.Fatalf("run -json docs incomplete: %+v", docs)
	}
	multi := captureStdout(t, func() error {
		return run([]string{"run", "-quick", "-json", "e4-poa", "e2-fig1"})
	})
	if err := json.Unmarshal(multi, &docs); err != nil {
		t.Fatalf("multi-id run -json is not one JSON document: %v\n%s", err, multi)
	}
	if len(docs) != 2 {
		t.Fatalf("expected 2 table docs, got %d", len(docs))
	}
}

// TestTopogameSpecRoundTrip pins the spec subcommand: a Spec emitted by
// `spec -emit` feeds back into `spec <file>` and reproduces the
// experiment's own table byte for byte; a declarative spec file runs
// through the engine.
func TestTopogameSpecRoundTrip(t *testing.T) {
	emitted := captureStdout(t, func() error { return run([]string{"spec", "-emit", "e4-poa"}) })
	if len(emitted) == 0 {
		t.Fatal("spec -emit produced nothing")
	}
	specPath := filepath.Join(t.TempDir(), "e4.json")
	if err := os.WriteFile(specPath, emitted, 0o644); err != nil {
		t.Fatal(err)
	}
	viaSpec := captureStdout(t, func() error {
		return run([]string{"spec", "-quick", "-csv", "-seed", "2", specPath})
	})
	viaRun := captureStdout(t, func() error {
		return run([]string{"run", "-quick", "-csv", "-seed", "2", "e4-poa"})
	})
	if !bytes.Equal(viaSpec, viaRun) {
		t.Fatalf("spec round-trip differs from direct run:\n%s\nvs\n%s", viaSpec, viaRun)
	}

	declarative := captureStdout(t, func() error {
		return run([]string{"spec", "-csv", "testdata/spec_example.json"})
	})
	if !strings.HasPrefix(string(declarative), "n,alpha,gamma,seed,converged,links,social-cost,max-indegree,degree-gini") {
		t.Fatalf("declarative spec output has wrong headers:\n%s", declarative)
	}

	if err := run([]string{"spec"}); err == nil {
		t.Error("spec without a file should error")
	}
	if err := run([]string{"spec", "-emit", "nope"}); err == nil {
		t.Error("spec -emit of unknown id should error")
	}
	if err := run([]string{"spec", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("spec with missing file should error")
	}
}

// TestTopogameSweepWidthInvariant runs a 2×2 sweep grid at parallelism
// 1 and 4 and asserts byte-identical tables — the CLI form of the
// engine's width-invariance contract.
func TestTopogameSweepWidthInvariant(t *testing.T) {
	sweepJSON := `{
		"name": "cli-2x2",
		"base": {
			"seed": 1,
			"metric": {"family": "uniform", "n": 6},
			"game": {"alpha": 2},
			"dynamics": {"runs": 2},
			"measures": ["converged", "links", "social-cost", "c-over-lb"]
		},
		"alphas": [1, 4],
		"ns": [6, 8]
	}`
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, []byte(sweepJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	seq := captureStdout(t, func() error { return run([]string{"sweep", "-csv", "-par", "1", path}) })
	par := captureStdout(t, func() error { return run([]string{"sweep", "-csv", "-par", "4", path}) })
	if len(seq) == 0 {
		t.Fatal("no sweep output")
	}
	if !bytes.Equal(seq, par) {
		t.Fatalf("sweep -par 1 and -par 4 differ:\n%s\nvs\n%s", seq, par)
	}
	// 2×2 grid → header + 4 rows.
	if got := strings.Count(strings.TrimSpace(string(seq)), "\n"); got != 4 {
		t.Fatalf("expected 4 data rows, got %d lines total:\n%s", got+1, seq)
	}

	if err := run([]string{"sweep"}); err == nil {
		t.Error("sweep without a file should error")
	}
}

// TestTopogameProfilingFlags runs a quick experiment under -cpuprofile
// and -memprofile and checks both profile files materialize non-empty.
func TestTopogameProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	err := run([]string{"run", "-quick", "-cpuprofile", cpu, "-memprofile", mem, "e2-fig1"})
	if err != nil {
		t.Fatalf("profiled run: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	if err := run([]string{"run", "-quick", "-cpuprofile", filepath.Join(dir, "no", "such", "dir.pprof"), "e2-fig1"}); err == nil {
		t.Error("unwritable cpuprofile path should error")
	}
}

// TestTopogameLargeNSweepValidates parses and validates the checked-in
// large-n scaling grid without running it (the full run is a manual
// scaling scenario, ~half a minute at n=1024; see EXPERIMENTS.md).
func TestTopogameLargeNSweepValidates(t *testing.T) {
	f, err := os.Open("testdata/sweep_large_n.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sw, err := scenario.ReadSweep(f)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Base.Metric.Family != "unit" {
		t.Fatalf("large-n grid should use the unit (uniform-metric) family, got %q", sw.Base.Metric.Family)
	}
	if len(sw.Ns) == 0 || sw.Ns[len(sw.Ns)-1] < 1024 {
		t.Fatalf("large-n grid should scale to n ≥ 1024, got %v", sw.Ns)
	}
}

// TestTopogameChurnSweepValidates parses and validates the checked-in
// churn-survival grid without running it in full (see EXPERIMENTS.md;
// the quick run is exercised by the CLI churn smoke in CI).
func TestTopogameChurnSweepValidates(t *testing.T) {
	f, err := os.Open("testdata/sweep_churn.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sw, err := scenario.ReadSweep(f)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Base.Churn.Rate == 0 {
		t.Fatal("churn grid base spec should carry a churn block")
	}
	if len(sw.ChurnRates) == 0 || len(sw.Repairs) == 0 {
		t.Fatalf("churn grid should sweep churn_rates and repairs, got %v / %v", sw.ChurnRates, sw.Repairs)
	}
}

// TestTopogameSweepSmoke runs the checked-in CI smoke grid.
func TestTopogameSweepSmoke(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"sweep", "-quick", "-json", "testdata/sweep_smoke.json"})
	})
	var doc struct {
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("sweep -json invalid: %v\n%s", err, out)
	}
	if len(doc.Rows) != 2 {
		t.Fatalf("smoke grid should have 2 points, got %d", len(doc.Rows))
	}
}

// TestTopogameSweepKeepGoing: with no failing points -keep-going is a
// no-op — byte-identical output to a plain sweep and a clean exit.
func TestTopogameSweepKeepGoing(t *testing.T) {
	plain := captureStdout(t, func() error {
		return run([]string{"sweep", "-quick", "-json", "testdata/sweep_smoke.json"})
	})
	kept := captureStdout(t, func() error {
		return run([]string{"sweep", "-keep-going", "-quick", "-json", "testdata/sweep_smoke.json"})
	})
	if !bytes.Equal(plain, kept) {
		t.Fatalf("sweep -keep-going output differs from a plain sweep:\n%s\nvs\n%s", plain, kept)
	}
}
