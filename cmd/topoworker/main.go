// Command topoworker is a fabric worker: it registers with a
// topogamed coordinator started with -fabric, pulls sweep shards over
// HTTP, executes their grid points with the scenario engine, and
// pushes the rendered rows back. Workers are stateless and
// crash-safe — kill one mid-shard and the coordinator reassigns its
// work once the liveness lease lapses, with a byte-identical final
// table either way.
//
//	topogamed -addr :8080 -fabric &
//	topoworker -coordinator http://127.0.0.1:8080
//	topoworker -coordinator http://127.0.0.1:8080   # more workers = more throughput
//
// SIGINT/SIGTERM stop the worker cleanly; a shard in flight is simply
// abandoned and re-executed elsewhere.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "selfishnet/internal/experiments" // register the 13 paper runners
	"selfishnet/internal/fabric"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "topoworker:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("topoworker", flag.ContinueOnError)
	coordinator := fs.String("coordinator", "http://127.0.0.1:8080", "base URL of the topogamed coordinator")
	name := fs.String("name", "", "worker name in coordinator logs (default: hostname)")
	par := fs.Int("par", 0, "engine parallelism per grid point (0 = all cores)")
	poll := fs.Duration("poll", 50*time.Millisecond, "re-poll interval when the shard queue is empty")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request timeout against the coordinator")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *par < 0 {
		return fmt.Errorf("invalid -par %d: want 0 (all cores) or a positive width", *par)
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "topoworker"
		}
		*name = host
	}

	w := &fabric.Worker{
		Client:      &fabric.HTTPClient{Base: *coordinator, Timeout: *timeout},
		Name:        *name,
		Parallelism: *par,
		Poll:        *poll,
		Logf:        log.Printf,
	}
	log.Printf("topoworker: %s polling %s", *name, *coordinator)
	return w.Run(ctx)
}
