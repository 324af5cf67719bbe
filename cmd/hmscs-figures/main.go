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
	"io"
	"os"

	"hmscs/internal/cli"
	"hmscs/internal/run"
)

func main() { cli.Exit(run.KindFigure, runMain(os.Args[1:], os.Stdout)) }

func runMain(args []string, out io.Writer) error { return cli.Main(run.KindFigure, args, out) }
