// Command hmscs-sweep sweeps one design parameter of an HMSCS system —
// cluster count, load, message size, switch ports, traffic locality, or
// arrival process — and prints analysis/simulation latency pairs per point.
// It is the design-space-exploration companion to the fixed figures of
// hmscs-figures.
//
// Points are evaluated concurrently on a bounded worker pool (-parallel;
// default all cores) with deterministic per-point seeds, so the printed
// table is identical at every parallelism level.
//
// It is a thin shell over the unified experiment API (internal/run): the
// flags build a "sweep" experiment spec, or load one with -spec and
// override its fields with any explicitly-set flags.
//
// Examples:
//
//	hmscs-sweep -var clusters -ints 1,2,4,8,16,32,64,128,256
//	hmscs-sweep -var lambda -floats 25,50,100,200,400 -clusters 16
//	hmscs-sweep -var locality -floats 0,0.25,0.5,0.75,0.95 -arch blocking
//	hmscs-sweep -var lambda -precision 0.02   # adaptive replications per point
//	hmscs-sweep -spec experiment.json -emit -
package main

import (
	"io"
	"os"

	"hmscs/internal/cli"
	"hmscs/internal/run"
)

func main() { cli.Exit(run.KindSweep, runMain(os.Args[1:], os.Stdout)) }

func runMain(args []string, out io.Writer) error { return cli.Main(run.KindSweep, args, out) }
