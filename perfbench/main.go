// Command perfbench is the repository's benchmark. It runs one of four
// seeded workloads — sweep-dyn, certify-large, serve-run and
// fabric-sweep, one per user path — in its own process, times it from
// outside through the packages' exported APIs, checks every output
// against a reference outside the timed region, and prints the metrics
// with units and sample counts. The last line of standard output is a
// JSON object with the keys correct, attempted, failed and metrics:
// the end-to-end metrics with -trace 0, the per-layer metrics of a run
// that also records spans around each layer call with -trace 1.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload sweep-dyn --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 1
//
// Every file it writes stays under .bench_build/perfbench/. See
// perfbench/README.md for why each workload exists and what each
// metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workDir is where every run keeps its files, relative to the root.
const workDir = ".bench_build/perfbench"

// workload is one seeded input set and the user path it drives.
type workload struct {
	name string
	run  func(e *runEnv) error
}

var workloads = []workload{
	{"sweep-dyn", runSweepDyn},
	{"certify-large", runCertifyLarge},
	{"serve-run", runServeRun},
	{"fabric-sweep", runFabricSweep},
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// runEnv is what a workload gets: its options, a private scratch
// directory, the tracer of its traced rounds and the report it fills.
type runEnv struct {
	opts   options
	dir    string
	out    io.Writer
	tracer *tracer
	rep    report
}

// report collects what a workload measured.
type report struct {
	attempted, failed int64
	// checkErrs describes every output mismatch; each also counts as a
	// failed operation.
	checkErrs []string
	// setup holds set-up times in seconds, one per set-up repetition.
	setup []float64
	// work and tracedWork hold one work rate per untraced and traced
	// round, in workUnit per second.
	work, tracedWork []float64
	workUnit         string
	// uncovered holds, per traced round, the share of its timed region
	// no top-level span covers.
	uncovered []float64
	// extra are the workload's own end-to-end figures, printed beside
	// the gated metrics with their sample counts.
	extra []extraMetric
	// notes explain figures the run could not support, such as a tail
	// percentile with too few samples beyond it at a short --seconds.
	notes []string
	// layers holds the per-layer metrics; unset ones read 0. rounds
	// holds the per-round ones of each traced round until finishLayers
	// reduces them to medians.
	layers map[string]float64
	rounds []map[string]float64
}

type extraMetric struct {
	name, unit string
	value      float64
	samples    int
}

func (r *report) fail(format string, args ...any) { r.failOps(1, format, args...) }

// failOps records a check failure that n operations share.
func (r *report) failOps(n int64, format string, args ...any) {
	r.failed += n
	r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
}

func (r *report) addExtra(name, unit string, value float64, samples int) {
	r.extra = append(r.extra, extraMetric{name, unit, value, samples})
}

// addPct records the p-th percentile of samples as an extra figure, or
// a note when the samples cannot support it.
func (r *report) addPct(name, unit string, samples []float64, p float64) {
	v, err := percentile(samples, p)
	if err != nil {
		r.notes = append(r.notes, fmt.Sprintf("%s not reported: %v", name, err))
		return
	}
	r.addExtra(name, unit, v, len(samples))
}

func (r *report) setLayer(name string, v float64) {
	if r.layers == nil {
		r.layers = make(map[string]float64)
	}
	r.layers[name] = v
}

// addRound files one traced round's per-layer values.
func (r *report) addRound(m map[string]float64) { r.rounds = append(r.rounds, m) }

// finishLayers sets each per-round layer metric to its median over the
// traced rounds.
func (r *report) finishLayers() {
	vals := map[string][]float64{}
	for _, m := range r.rounds {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	for _, k := range sortedKeys(vals) {
		r.setLayer(k, median(vals[k]))
	}
}

// setLayerSamplesPct sets a per-layer percentile of raw samples, or
// notes why they cannot support it (the metric then reads 0).
func (r *report) setLayerSamplesPct(name string, samples []float64, p float64) {
	v, err := percentile(samples, p)
	if err != nil {
		r.notes = append(r.notes, fmt.Sprintf("%s not reported: %v", name, err))
		return
	}
	r.setLayer(name, v)
}

// setLayerPct is setLayerSamplesPct over span durations in unit.
func (r *report) setLayerPct(name string, q spanQuery, p float64, unit time.Duration) {
	r.setLayerSamplesPct(name, durations(q.durs(), unit), p)
}

// rounds calls round until the timed durations it reports add up to
// --seconds: untraced rounds only without -trace, alternating untraced
// and traced rounds (at least one of each) with it, so the
// traced-minus-untraced overhead compares neighbours and a traced run
// lasts as long as an untraced one.
func (e *runEnv) rounds(round func(tr *tracer) (time.Duration, error)) error {
	budget := time.Duration(e.opts.seconds) * time.Second
	var spent time.Duration
	for i := 0; ; i++ {
		var tr *tracer
		if e.opts.trace && i%2 == 1 {
			tr = e.tracer
		}
		// Every round starts from a collected heap, so garbage the
		// previous round and its checks left is not collected on this
		// round's clock.
		runtime.GC()
		d, err := round(tr)
		if err != nil {
			return err
		}
		spent += d
		if spent >= budget && (!e.opts.trace || i >= 1) {
			return nil
		}
	}
}

// recordRound files one round's work rate under untraced or traced.
func (e *runEnv) recordRound(tr *tracer, work float64, d time.Duration) {
	rate := work / d.Seconds()
	if tr == nil {
		e.rep.work = append(e.rep.work, rate)
	} else {
		e.rep.tracedWork = append(e.rep.tracedWork, rate)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run: sweep-dyn, certify-large, serve-run, fabric-sweep or all")
	seed := fs.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 10, "timed seconds per run")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: want --seconds ≥ 1, --trace 0|1 and no arguments")
		return 2
	}
	opts := options{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if opts.workload == "all" {
		return runAll(opts, stdout, stderr)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == opts.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", opts.workload)
		return 2
	}
	code, err := runOne(*w, opts, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return code
}

// runOne runs a workload in this process and prints its result.
func runOne(w workload, opts options, stdout io.Writer) (int, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return 1, err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)
	e := &runEnv{opts: opts, dir: dir, out: stdout}
	if opts.trace {
		e.tracer = newTracer()
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%v\n", w.name, opts.seed, opts.seconds, opts.trace)
	fmt.Fprintf(stdout, "env: %s\n", envLine())
	if err := w.run(e); err != nil {
		return 1, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return 1, err
	}
	if opts.trace {
		path := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, opts.seed))
		if err := e.tracer.writeTo(path); err != nil {
			return 1, err
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(e.tracer.snapshot()), path)
	}
	return printResult(stdout, &e.rep, opts, rss)
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run prints as its last line; M is
// value when it is written and json.RawMessage when a child's line is
// read back.
type resultLine[M any] struct {
	Correct   bool         `json:"correct"`
	Attempted int64        `json:"attempted"`
	Failed    int64        `json:"failed"`
	Metrics   map[string]M `json:"metrics"`
}

// printResult prints the human-readable metric lines and the final
// JSON line; the exit code is 1 when any check failed.
func printResult(stdout io.Writer, r *report, opts options, rss float64) (int, error) {
	metrics := make(map[string]value)
	for _, m := range r.extra {
		fmt.Fprintf(stdout, "figure %-22s %14.6g %-5s (n=%d)\n", m.name, m.value, m.unit, m.samples)
	}
	if len(r.work) == 0 || len(r.setup) == 0 {
		return 1, errors.New("workload measured no round or no set-up")
	}
	workRate := median(r.work)
	fmt.Fprintf(stdout, "rounds: %s/s per untraced round:%s\n", r.workUnit, fmtList(r.work))
	if opts.trace {
		if len(r.tracedWork) == 0 {
			return 1, errors.New("trace run measured no traced round")
		}
		overhead := 1 - median(r.tracedWork)/workRate
		r.setLayer("trace.overhead_share", overhead)
		r.setLayer("trace.uncovered_share", median(r.uncovered))
		fmt.Fprintf(stdout, "tracing overhead: %.2f%% of %s/s (untraced %.6g over %d rounds, traced %.6g over %d rounds); top-level spans leave %.2f%% of the traced timed region uncovered\n",
			100*overhead, r.workUnit, workRate, len(r.work), median(r.tracedWork), len(r.tracedWork), 100*median(r.uncovered))
		for _, d := range perLayer {
			v := r.layers[d.Name]
			metrics[d.Name] = value{v, d.Unit}
			fmt.Fprintf(stdout, "layer  %-30s %14.6g %s\n", d.Name, v, d.Unit)
		}
	} else {
		e2e := map[string]struct {
			v float64
			n int
		}{
			"setup_s":      {median(r.setup), len(r.setup)},
			"peak_rss_mib": {rss, 1},
			"work_per_s":   {workRate, len(r.work)},
		}
		for _, d := range endToEnd {
			m := e2e[d.Name]
			metrics[d.Name] = value{m.v, d.Unit}
			note := ""
			if d.Name == "work_per_s" {
				note = " " + r.workUnit + "/s, median of rounds"
			}
			fmt.Fprintf(stdout, "metric %-22s %14.6g %-5s (n=%d)%s\n", d.Name, m.v, d.Unit, m.n, note)
		}
	}
	for name := range metrics {
		if err := checkMetricName(name); err != nil {
			return 1, err
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(stdout, "note: %s\n", n)
	}
	for _, c := range r.checkErrs {
		fmt.Fprintf(stdout, "check failed: %s\n", c)
	}
	correct := len(r.checkErrs) == 0 && r.failed == 0
	line, err := json.Marshal(resultLine[value]{correct, r.attempted, r.failed, metrics})
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1, nil
	}
	return 0, nil
}

// runAll runs every workload in a fresh child process of this binary,
// so each one's set-up time and peak RSS are its own, and prints one
// summary line per workload plus a combined JSON line.
func runAll(opts options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	total := resultLine[json.RawMessage]{Correct: true, Metrics: map[string]json.RawMessage{}}
	trace := "0"
	if opts.trace {
		trace = "1"
	}
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatUint(opts.seed, 10),
			"--seconds", strconv.Itoa(opts.seconds), "--trace", trace)
		cmd.Stderr = stderr
		pipe, err := cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			last = sc.Text()
			fmt.Fprintf(stdout, "[%s] %s\n", w.name, last)
		}
		if err := cmd.Wait(); err != nil {
			code = 1
		}
		var res resultLine[json.RawMessage]
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s printed no result\n", w.name)
			total.Correct = false
			code = 1
			continue
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"."+k] = v
		}
	}
	line, _ := json.Marshal(total)
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		code = 1
	}
	return code
}

// envLine records the machine a result was measured on.
func envLine() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB is this process's high-water resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// timeSetups runs setup reps×batch times and records, per rep, the
// mean set-up time of its batch after a GC, so a set-up of a
// millisecond or less is not read off one noisy sample; the reported
// setup_s is the median over reps. prepare (untimed, may be nil) runs
// before every set-up, teardown (untimed) after every set-up but the
// last, whose state is returned.
func timeSetups[T any](r *report, reps, batch int, prepare func() error, setup func() (T, error), teardown func(T)) (T, error) {
	var state T
	var have bool
	for i := 0; i < reps; i++ {
		runtime.GC()
		var total time.Duration
		for j := 0; j < batch; j++ {
			if have {
				teardown(state)
				have = false
			}
			if prepare != nil {
				if err := prepare(); err != nil {
					return state, err
				}
			}
			t0 := time.Now()
			s, err := setup()
			total += time.Since(t0)
			if err != nil {
				return state, err
			}
			state, have = s, true
		}
		r.setup = append(r.setup, total.Seconds()/float64(batch))
	}
	return state, nil
}

func fmtList(vs []float64) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, " %.6g", v)
	}
	return b.String()
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
