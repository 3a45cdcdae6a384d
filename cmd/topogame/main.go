// Command topogame runs the reproduction experiments for "On the
// Topologies Formed by Selfish Peers" (Moscibroda, Schmid, Wattenhofer;
// PODC 2006) and executes declarative scenario specs and parameter
// sweeps through the same engine.
//
// Usage:
//
//	topogame list                 # show catalog entries
//	topogame run all              # run every experiment
//	topogame run e4-poa e5-nonash # run selected experiments
//	topogame run -quick -csv e1-upper
//	topogame spec -emit e4-poa    # print a catalog entry as Spec JSON
//	topogame spec workload.json   # run a declarative Spec (or "-": stdin)
//	topogame sweep grid.json      # run a Sweep grid (α × n × seed × γ ×
//	                              # churn-rate × repair × samples)
//	topogame churn -rate 0.1      # churn survival: equilibrium under
//	                              # join/leave churn, selfish repairs
//	topogame certify -n 65536     # closed-form Nash certification of the
//	                              # star/chain at internet scale, verified
//	                              # == through the banded kernels
//
// Flags for run/spec/sweep/churn (certify takes all but -quick and
// -par):
//
//	-quick  reduced sizes (~10× faster; smoke testing)
//	-csv    emit CSV instead of aligned text
//	-json   emit JSON (machine-readable; run prints one array of
//	        table objects, spec/sweep one table object)
//	-seed N deterministic seed override (default: spec/flag default 1)
//	-par N  concurrent runners / grid points (default 0 = all cores;
//	        negative N is an error); tables print in order and are
//	        bit-identical at any N
//	-cpuprofile f  write a pprof CPU profile of the run to f
//	-memprofile f  write a pprof heap profile (post-run, after GC) to f
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"selfishnet/internal/bestresponse"
	"selfishnet/internal/core"
	_ "selfishnet/internal/experiments" // register the 13 paper runners
	"selfishnet/internal/export"
	"selfishnet/internal/metric"
	"selfishnet/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "topogame:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	switch args[0] {
	case "list":
		if len(args) > 1 {
			return fmt.Errorf("list takes no arguments (got %q)", args[1])
		}
		for _, id := range scenario.IDs() {
			desc, err := scenario.Describe(id)
			if err != nil {
				return err
			}
			fmt.Printf("%-14s %s\n", id, desc)
		}
		return nil
	case "run":
		return runExperiments(args[1:])
	case "spec":
		return runSpec(args[1:])
	case "sweep":
		return runSweep(args[1:])
	case "churn":
		return runChurn(args[1:])
	case "certify":
		return runCertify(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// outputFlags holds the shared rendering/execution flags.
type outputFlags struct {
	quick      bool
	csv        bool
	json       bool
	seed       uint64
	par        int
	cpuprofile string
	memprofile string
}

// register registers every shared flag: the output flags plus -quick
// and -par, which only the experiment-running commands read.
func (o *outputFlags) register(fs *flag.FlagSet, seedDefault uint64) {
	o.registerOutput(fs, seedDefault)
	fs.BoolVar(&o.quick, "quick", false, "reduced experiment sizes")
	fs.IntVar(&o.par, "par", 0, "concurrent runners (0 = all cores, 1 = sequential)")
}

// registerOutput registers the rendering, seed and profiling flags.
func (o *outputFlags) registerOutput(fs *flag.FlagSet, seedDefault uint64) {
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of text tables")
	fs.BoolVar(&o.json, "json", false, "emit JSON instead of text tables")
	fs.Uint64Var(&o.seed, "seed", seedDefault, "random seed")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a pprof heap profile to this file")
}

// parse parses args into fs and rejects a negative -par, which would
// otherwise silently mean "all cores".
func (o *outputFlags) parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.par < 0 {
		return fmt.Errorf("%s: invalid -par %d: want 0 (all cores) or a positive width", fs.Name(), o.par)
	}
	return nil
}

// profiled runs work under the requested pprof profiles, so kernel
// investigations are profile-guided (`go tool pprof`) instead of
// requiring ad-hoc instrumentation patches. The CPU profile covers
// exactly the work function; the heap profile snapshots live objects
// after the run (post-GC), the steady-state arena footprint.
func (o *outputFlags) profiled(work func() error) error {
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if err := work(); err != nil {
		return err
	}
	if o.memprofile != "" {
		f, err := os.Create(o.memprofile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC() // report live steady-state objects, not transients
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}

func (o *outputFlags) write(tb *export.Table, w io.Writer) error {
	switch {
	case o.json:
		return tb.WriteJSON(w)
	case o.csv:
		return tb.WriteCSV(w)
	default:
		return tb.WriteText(w)
	}
}

func runExperiments(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var out outputFlags
	out.register(fs, scenario.DefaultSeed)
	if err := out.parse(fs, args); err != nil {
		return err
	}
	ids := fs.Args()
	if len(ids) == 0 {
		return fmt.Errorf("no experiments given; try 'topogame run all'")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = scenario.IDs()
	}
	params := scenario.Params{Quick: out.quick, Seed: out.seed}
	return out.profiled(func() error {
		// Runners execute concurrently, but tables come back in id order
		// and bit-identical to a sequential run, so the output is stable
		// across -par values.
		tables, err := scenario.RunAll(ids, params, out.par)
		if err != nil {
			return err
		}
		if out.json {
			// One JSON array for any id count, so stdout always parses as
			// a single document.
			return export.WriteJSONTables(os.Stdout, tables)
		}
		for i, tb := range tables {
			if err := out.write(tb, os.Stdout); err != nil {
				return err
			}
			if i+1 < len(ids) {
				fmt.Println()
			}
		}
		return nil
	})
}

func runSpec(args []string) error {
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	var out outputFlags
	// Seed 0 = "defer to the spec's own seed".
	out.register(fs, 0)
	emit := fs.String("emit", "", "print the catalog spec with this id as JSON and exit")
	if err := out.parse(fs, args); err != nil {
		return err
	}
	if *emit != "" {
		if fs.NArg() > 0 {
			return fmt.Errorf("spec -emit takes no file argument (got %q)", fs.Arg(0))
		}
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "emit" {
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			return fmt.Errorf("spec -emit only prints the catalog spec; %s would be ignored", strings.Join(stray, " "))
		}
		spec, err := scenario.CatalogSpec(*emit)
		if err != nil {
			return err
		}
		// Emit the canonical (normalized) form — the same shape the
		// engine executes, the golden tests pin and the topogamed result
		// cache hashes — so an emitted spec is stable under re-emission
		// and round-trips through `spec <file>` byte-identically.
		return spec.Normalize().WriteJSON(os.Stdout)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: topogame spec [flags] <file.json|->  (or -emit <id>)")
	}
	spec, err := readSpecArg(fs.Arg(0))
	if err != nil {
		return err
	}
	return out.profiled(func() error {
		tb, err := scenario.RunSpec(spec, scenario.Params{
			Quick: out.quick, Seed: out.seed, Parallelism: out.par,
		})
		if err != nil {
			return err
		}
		return out.write(tb, os.Stdout)
	})
}

func readSpecArg(path string) (scenario.Spec, error) {
	r, closer, err := openArg(path)
	if err != nil {
		return scenario.Spec{}, err
	}
	defer closer()
	return scenario.ReadSpec(r)
}

func openArg(path string) (io.Reader, func(), error) {
	if path == "-" {
		return os.Stdin, func() {}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// runChurn is the flag-driven front end for churn experiments: it
// builds a declarative spec (uniform metric, empty start, default
// dynamics) with a churn block, asks "does the equilibrium survive
// churn?" and prints one table with the churn measures. The same run is
// available declaratively via `topogame spec` with a "churn" block.
func runChurn(args []string) error {
	fs := flag.NewFlagSet("churn", flag.ContinueOnError)
	var out outputFlags
	out.register(fs, scenario.DefaultSeed)
	n := fs.Int("n", 24, "peer count")
	alpha := fs.Float64("alpha", 2, "link price α")
	rate := fs.Float64("rate", 0.1, "per-peer toggle rate (events/second)")
	duration := fs.Float64("duration", 5, "simulated churn horizon (seconds)")
	repair := fs.String("repair", "selfish", "repair strategy: selfish, nearest or none")
	family := fs.String("metric", "uniform", "metric family (sized families only)")
	if err := out.parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("churn takes no file argument (got %q); use 'topogame spec' with a churn block", fs.Arg(0))
	}
	spec := scenario.Spec{
		Name:   fmt.Sprintf("churn: %s n=%d α=%v rate=%v repair=%s", *family, *n, *alpha, *rate, *repair),
		Seed:   out.seed,
		Metric: scenario.MetricSpec{Family: *family, N: *n},
		Game:   scenario.GameSpec{Alpha: *alpha},
		Churn: scenario.ChurnSpec{
			Rate:     *rate,
			Duration: *duration,
			Repair:   *repair,
		},
		Measures: []string{
			"converged", "links", "social-cost",
			"churn-rate", "churn-repair", "churn-events",
			"restabilize-mean", "restabilize-max", "overshoot", "tail-stable",
		},
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	return out.profiled(func() error {
		tb, err := scenario.RunSpec(spec, scenario.Params{
			Quick: out.quick, Parallelism: out.par,
		})
		if err != nil {
			return err
		}
		return out.write(tb, os.Stdout)
	})
}

// certifyBand is the band certify folds the social cost at: chunks of
// 64 sources, as many rows as the multi-source BFS fills per sweep. The
// table's band column reports it.
const certifyBand = 64

// runCertify decides Nash stability of a canonical topology (the
// paper's center-sponsored star or the chain) at internet scale: the
// verdict comes from the O(n) closed-form certification
// (core.CertifyStar / core.CertifyChain), and every closed-form
// quantity is then re-derived through the real evaluation machinery —
// the banded multi-source kernel for the social cost, the streamed
// single-source evaluator for per-peer costs and the witness deviation
// — and compared with == (no tolerances). No dense distance matrix or
// n² slab is ever materialized. The banded fold runs at certifyBand on
// min(GOMAXPROCS, claims) workers, each holding the hop levels of 64
// sources for the call only, and on fewer when their level tables
// together would pass 512 MiB. At n = 65536 a worker's level table is
// 16 MiB, so at most 32 workers fold and the run fits in well under
// 1 GiB on any core count. The sampled
// estimator runs on the caller's goroutine. The output bytes do not
// depend on the width, so GOMAXPROCS=1 is the single-core run.
func runCertify(args []string) error {
	fs := flag.NewFlagSet("certify", flag.ContinueOnError)
	var out outputFlags
	out.registerOutput(fs, scenario.DefaultSeed)
	topology := fs.String("topology", "star", "topology to certify: star or chain")
	n := fs.Int("n", 65536, "peer count")
	alpha := fs.Float64("alpha", 2, "link price α")
	samples := fs.Int("samples", 0, "cross-check with the sampled estimator over this many sources; -seed seeds it (0 = skip)")
	if err := out.parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("certify takes no file argument (got %q)", fs.Arg(0))
	}

	return out.profiled(func() error {
		var (
			cert core.Certification
			p    core.Profile
			err  error
		)
		switch *topology {
		case "star":
			if cert, err = core.CertifyStar(*n, *alpha, bestresponse.Tolerance); err == nil {
				p, err = core.StarProfile(*n)
			}
		case "chain":
			if cert, err = core.CertifyChain(*n, *alpha, bestresponse.Tolerance); err == nil {
				p, err = core.ChainProfile(*n)
			}
		default:
			return fmt.Errorf("unknown topology %q (want star or chain)", *topology)
		}
		if err != nil {
			return err
		}

		space, err := metric.UniformImplicit(*n)
		if err != nil {
			return err
		}
		inst, err := core.NewInstance(space, *alpha)
		if err != nil {
			return err
		}
		ev := core.NewEvaluator(inst)

		// The banded social cost must reproduce the closed form exactly —
		// this walks every one of the n² pairs through the multi-source
		// kernel with 64 sources' hop levels resident per worker.
		banded, err := ev.SocialCostBanded(p, certifyBand)
		if err != nil {
			return err
		}
		if banded != cert.Social {
			return fmt.Errorf("banded social cost %+v != closed form %+v", banded, cert.Social)
		}

		// Spot-check per-peer closed forms through the streamed evaluator,
		// and replay the witness deviation when unstable.
		peerEval := core.StarPeerEval
		if *topology == "chain" {
			peerEval = core.ChainPeerEval
		}
		for _, i := range []int{0, 1, *n / 2, *n - 1} {
			if got, want := ev.PeerEvalStreamed(p, i), peerEval(*n, *alpha, i); got != want {
				return fmt.Errorf("peer %d eval %+v != closed form %+v", i, got, want)
			}
		}
		if !cert.Stable {
			if got := ev.DeviationEvalStreamed(p, cert.Deviator, cert.Witness); got != cert.WitnessEval {
				return fmt.Errorf("witness eval %+v != closed form %+v", got, cert.WitnessEval)
			}
		}

		tb := &export.Table{
			Title: fmt.Sprintf("certify: %s n=%d α=%v", *topology, *n, *alpha),
			Headers: []string{"topology", "n", "alpha", "band", "nash", "social-cost",
				"best-gain", "deviator", "est-social", "est-social-ci"},
		}
		estV, estCI := "-", "-"
		if *samples > 0 {
			est, err := ev.EstimateSocialCost(p, *samples, out.seed)
			if err != nil {
				return err
			}
			estV, estCI = export.Num(est.Value), export.Num(est.CI)
		}
		deviator := "-"
		if !cert.Stable {
			deviator = export.Int(cert.Deviator)
		}
		tb.Rows = append(tb.Rows, []string{
			*topology, export.Int(*n), export.Num(*alpha), export.Int(certifyBand),
			fmt.Sprintf("%v", cert.Stable), export.Num(cert.Social.Total()),
			export.Num(cert.BestGain), deviator, estV, estCI,
		})
		tb.Notes = append(tb.Notes,
			"social-cost: closed form, reproduced == by the banded multi-source kernel",
			"per-peer closed forms and the witness deviation (when unstable) verified == through the streamed evaluator")
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Fprintf(os.Stderr, "topogame certify: heap %.1f MiB (sys %.1f MiB), no dense matrix\n",
			float64(ms.HeapAlloc)/(1<<20), float64(ms.Sys)/(1<<20))
		return out.write(tb, os.Stdout)
	})
}

func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var out outputFlags
	out.register(fs, 0)
	keepGoing := fs.Bool("keep-going", false, "do not abort on point failures; render failed rows as placeholders and report them")
	if err := out.parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: topogame sweep [flags] <file.json|->")
	}
	r, closer, err := openArg(fs.Arg(0))
	if err != nil {
		return err
	}
	defer closer()
	sw, err := scenario.ReadSweep(r)
	if err != nil {
		return err
	}
	if out.seed != 0 {
		// The seed axis owns per-point seeding; a -seed override replaces
		// the base seed (and therefore a default single-point seed axis).
		sw.Base.Seed = out.seed
		if len(sw.Seeds) > 0 {
			return fmt.Errorf("sweep file has a seeds axis; -seed would be ambiguous")
		}
	}
	return out.profiled(func() error {
		if *keepGoing {
			// Keep-going: point failures become placeholder rows plus a
			// structured report instead of aborting the whole grid. The
			// table (healthy rows byte-identical to a clean run) still
			// goes to stdout; the failure report and the non-zero exit
			// make the partial-ness impossible to miss in scripts.
			tb, failed, err := sw.RunPartialContext(context.Background(), scenario.Params{Quick: out.quick}, out.par, nil)
			if err != nil {
				return err
			}
			if werr := out.write(tb, os.Stdout); werr != nil {
				return werr
			}
			if len(failed) == 0 {
				return nil
			}
			for _, f := range failed {
				fmt.Fprintf(os.Stderr, "topogame sweep: point %d failed: %s\n", f.Index, f.Error)
			}
			return fmt.Errorf("sweep: %d of %d point(s) failed; their rows read %q", len(failed), len(sw.Points()), scenario.FailedCell)
		}
		tb, err := sw.Run(scenario.Params{Quick: out.quick}, out.par)
		if err != nil {
			return err
		}
		return out.write(tb, os.Stdout)
	})
}

func usage() {
	fmt.Fprint(os.Stderr, `topogame — experiments for "On the Topologies Formed by Selfish Peers"

commands:
  list                     list catalog entries with descriptions
  run [flags] <ids|all>    run experiments and print tables
  spec [flags] <file|->    run a declarative Spec JSON (see -emit)
  spec -emit <id>          print a catalog entry as Spec JSON
  sweep [flags] <file|->   run a Sweep JSON grid (α × n × seed × γ ×
                           churn-rate × repair × samples); -keep-going
                           renders failed points as placeholder rows
                           instead of aborting
  churn [flags]            run a churn survival experiment (equilibrium
                           under join/leave churn; -n -alpha -rate
                           -duration -repair -metric)
  certify [flags]          certify star/chain Nash stability from the
                           paper's closed forms and verify them ==
                           through the banded kernels, no dense matrix
                           (-topology -n -alpha -samples); the fold
                           runs on every core within 512 MiB of hop
                           levels, each worker holding 64 sources' for
                           the call
  help                     show this help

flags (run/spec/sweep/churn; certify takes all but -quick and -par):
  -quick      reduced sizes (smoke test)
  -csv        CSV output
  -json       JSON output (machine-readable)
  -seed N     deterministic seed override
  -par N      concurrent runners / grid points (default 0 = all cores;
              output is identical at any value)
  -cpuprofile f  write a pprof CPU profile of the run to f
  -memprofile f  write a pprof heap profile (post-run, after GC) to f
`)
}
