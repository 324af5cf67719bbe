// Command hmscs-figures regenerates every table and figure of the paper's
// evaluation (§6): Table 1 (scenarios), Table 2 (parameters), and Figures
// 4-7 (mean message latency vs. number of clusters for both scenarios and
// both interconnect architectures), each with analysis and simulation
// series. It also produces the derived outputs: the blocking/non-blocking
// latency ratio claim and the model-accuracy ablations.
//
// It is a thin shell over the unified experiment API (internal/run): the
// flags build a "figure" experiment spec, or load one with -spec and
// override its fields with any explicitly-set flags.
//
// Examples:
//
//	hmscs-figures -what all            # everything, full paper procedure
//	hmscs-figures -what fig4 -format plot
//	hmscs-figures -what ratio -fast    # analytic-only, instant
//	hmscs-figures -what fig4 -arrival mmpp -burst-ratio 10   # bursty variant
//	hmscs-figures -spec experiment.json -emit run.jsonl
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
		fmt.Fprintln(os.Stderr, "hmscs-figures:", err)
		os.Exit(1)
	}
}

func runMain(args []string, out io.Writer) error {
	spec, err := cli.PreloadSpec(args, run.KindFigure)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("hmscs-figures", flag.ContinueOnError)
	var xf cli.ExperimentFlags
	var parallel int
	xf.Register(fs)
	fs.StringVar(&spec.Figure.What, "what", spec.Figure.What, "what to produce: tables, fig4, fig5, fig6, fig7, ratio, ablation, future, all")
	fs.StringVar(&spec.Figure.Format, "format", spec.Figure.Format, "output format for figures: table, csv, plot, all")
	fs.BoolVar(&spec.Figure.Fast, "fast", spec.Figure.Fast, "skip simulation (analytic series only)")
	fs.IntVar(&spec.Run.Reps, "reps", spec.Run.Reps, "simulation replications per point")
	fs.IntVar(&spec.Run.Messages, "messages", spec.Run.Messages, "measured messages per replication (paper: 10000)")
	fs.Uint64Var(&spec.Run.Seed, "seed", spec.Run.Seed, "base random seed")
	cli.BindParallel(fs, &parallel)
	cli.BindArrival(fs, spec.Workload)
	cli.BindPrecision(fs, spec.Precision)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := xf.Context()
	defer cancel()
	_, err = xf.Execute(ctx, spec, parallel, out)
	return err
}
