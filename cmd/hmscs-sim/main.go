// Command hmscs-sim runs the discrete-event simulator on one HMSCS
// configuration, mirroring the paper's validation procedure, and prints the
// measured mean latency with per-centre statistics.
//
// Replications run concurrently on a bounded worker pool (-parallel;
// default all cores) with deterministic per-replication seeds, so the
// reported aggregate is identical at every parallelism level. With
// -precision the fixed -reps/-warmup procedure is replaced by the
// adaptive output-analysis engine: MSER-5 warmup deletion per replication
// and a sequential stopping rule that extends the replication set until
// the confidence interval on the mean hits the requested relative width.
//
// It is a thin shell over the unified experiment API (internal/run): the
// flags build a "simulate" experiment spec, or load one with -spec and
// override its fields with any explicitly-set flags.
//
// Examples:
//
//	hmscs-sim -case 1 -clusters 16 -msg 1024 -reps 3
//	hmscs-sim -case 1 -clusters 256 -precision 0.02   # run until ±2% @95%
//	hmscs-sim -arch blocking -service det -pattern local:0.9 -v
//	hmscs-sim -clusters 256 -arrival mmpp -burst-ratio 20   # bursty, equal load
//	hmscs-sim -spec experiment.json -timeout 60s
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hmscs/internal/cli"
	"hmscs/internal/run"
)

func main() {
	if err := runMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hmscs-sim:", err)
		os.Exit(1)
	}
}

func runMain(args []string, out io.Writer) error {
	spec, err := cli.PreloadSpec(args, run.KindSimulate)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("hmscs-sim", flag.ContinueOnError)
	var xf cli.ExperimentFlags
	var parallel int
	xf.Register(fs)
	cli.BindSystem(fs, spec.System)
	cli.BindSimProcedure(fs, spec.Run)
	cli.BindSimWorkload(fs, spec.Workload)
	cli.BindArrival(fs, spec.Workload)
	cli.BindPrecision(fs, spec.Precision)
	cli.BindScenario(fs, spec)
	cli.BindParallel(fs, &parallel)
	fs.BoolVar(&spec.Simulate.Verbose, "v", spec.Simulate.Verbose, "print per-centre statistics of replication 1")
	compare := fs.Bool("compare", !spec.Simulate.NoCompare, "also run the analytical model and report the error")
	fs.StringVar(&spec.Simulate.TraceOut, "trace-out", spec.Simulate.TraceOut, "record replication 1's message journeys to this CSV file (-trace is the arrival-trace input)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec.Simulate.NoCompare = !*compare
	ctx, cancel := xf.Context()
	defer cancel()
	_, err = xf.Execute(ctx, spec, parallel, out)
	return err
}
