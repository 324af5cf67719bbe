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
	"io"
	"os"

	"hmscs/internal/cli"
	"hmscs/internal/run"
)

func main() { cli.Exit(run.KindAnalyze, runMain(os.Args[1:], os.Stdout)) }

func runMain(args []string, out io.Writer) error { return cli.Main(run.KindAnalyze, args, out) }
