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
	"io"
	"os"

	"hmscs/internal/cli"
	"hmscs/internal/run"
)

func main() { cli.Exit(run.KindSimulate, runMain(os.Args[1:], os.Stdout)) }

func runMain(args []string, out io.Writer) error { return cli.Main(run.KindSimulate, args, out) }
