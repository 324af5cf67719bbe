// Command hmscs-analyze evaluates the paper's analytical model for one
// HMSCS configuration and prints the predicted mean message latency with a
// per-centre breakdown. The default -lambda is the paper's rate under the
// millisecond reading documented in DESIGN.md §2.
//
// It is a thin shell over the unified experiment API (internal/run): the
// flags build an "analyze" experiment spec, or load one with -spec and
// override its fields with any explicitly-set flags.
//
// Examples:
//
//	hmscs-analyze -case 1 -clusters 16 -msg 1024 -arch non-blocking
//	hmscs-analyze -icn1 Myrinet -ecn GE -clusters 8 -lambda 100 -mva
//	hmscs-analyze -clusters 64 -precision 0.02   # validate by simulation to ±2%
//	hmscs-analyze -spec experiment.json -emit run.jsonl
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
		fmt.Fprintln(os.Stderr, "hmscs-analyze:", err)
		os.Exit(1)
	}
}

func runMain(args []string, out io.Writer) error {
	spec, err := cli.PreloadSpec(args, run.KindAnalyze)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("hmscs-analyze", flag.ContinueOnError)
	var xf cli.ExperimentFlags
	xf.Register(fs)
	cli.BindSystem(fs, spec.System)
	cli.BindArrival(fs, spec.Workload)
	cli.BindPrecision(fs, spec.Precision)
	fs.BoolVar(&spec.Analyze.MVA, "mva", spec.Analyze.MVA, "also solve the exact closed-network MVA cross-check")
	fs.BoolVar(&spec.Analyze.Verbose, "v", spec.Analyze.Verbose, "print per-centre metrics")
	fs.Uint64Var(&spec.Run.Seed, "seed", spec.Run.Seed, "random seed for the -precision simulation check")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := xf.Context()
	defer cancel()
	_, err = xf.Execute(ctx, spec, 0, out)
	return err
}
