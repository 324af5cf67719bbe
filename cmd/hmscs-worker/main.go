// Command hmscs-worker is the pull side of the distributed unit
// fan-out: it attaches to a running hmscs-server, long-polls for
// simulation unit leases, executes each unit with the same engine a
// local run uses, and streams results back. Units are pure functions of
// (spec, stage, point, replication), and the coordinator merges results
// by unit index, so any mix of workers — including none, or ones that
// die mid-run — produces output byte-identical to a local run.
//
//	hmscs-server -addr 127.0.0.1:8642 &
//	hmscs-worker -connect 127.0.0.1:8642 -procs 8 &
//	hmscs-worker -connect 127.0.0.1:8642 -procs 8 &   # on another host
//	hmscs-sweep -clusters 1:128 -submit 127.0.0.1:8642
//
// Workers are stateless and may be added, restarted or SIGKILLed at any
// time: a dead worker's leases expire after one TTL and its units are
// re-offered (see docs/SERVER.md for the wire protocol).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"hmscs/internal/dist"
)

func main() {
	if err := runMain(os.Args[1:]); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "hmscs-worker:", err)
		os.Exit(1)
	}
}

func runMain(args []string) error {
	w, err := newWorker(args)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return w.Run(ctx)
}

// newWorker builds the worker the command line describes.
func newWorker(args []string) (*dist.Worker, error) {
	fs := flag.NewFlagSet("hmscs-worker", flag.ContinueOnError)
	connect := fs.String("connect", "127.0.0.1:8642", "hmscs-server address to pull unit leases from")
	procs := fs.Int("procs", runtime.NumCPU(), "units executed concurrently")
	name := fs.String("name", "", "worker label shown in GET /dist/workers (default host:pid)")
	quiet := fs.Bool("quiet", false, "suppress progress logging")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	base := *connect
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	w := &dist.Worker{Connect: base, Procs: *procs, Name: *name}
	if !*quiet {
		logger := log.New(os.Stderr, "hmscs-worker: ", log.LstdFlags)
		w.Logf = logger.Printf
	}
	return w, nil
}
