// Command hmscs-plan is the SLO-driven capacity planner: it answers "what
// do I deploy to serve this traffic within this latency budget, and what
// does it cost?" by screening a declarative design space through the
// analytic model (thousands of candidates per second), reducing the
// feasible set to a Pareto frontier on (cost, predicted latency), and
// verifying the cheapest frontier candidates with precision-mode
// simulation — the surrogate-screen-then-simulate methodology of
// DESIGN.md §7.
//
// Output is bit-identical at every -parallel value: enumeration order is
// fixed, screening writes by candidate index, and verification derives
// replication seeds with sim.ReplicationSeed.
//
// It is a thin shell over the unified experiment API (internal/run): the
// flags build a "plan" experiment spec, or load one with -spec and
// override its fields with any explicitly-set flags.
//
// Examples:
//
//	hmscs-plan -slo-latency 2 -top 3                  # default space, 2 ms budget
//	hmscs-plan -slo-latency 2 -arrival mmpp -burst-ratio 10   # plan for bursty load
//	hmscs-plan -space space.json -lambda 400 -format csv
//	hmscs-plan -slo-latency 1.5 -emit-configs winners/  # write deployable configs
//	hmscs-plan -print-space > space.json              # edit, then -space space.json
package main

import (
	"io"
	"os"

	"hmscs/internal/cli"
	"hmscs/internal/run"
)

func main() { cli.Exit(run.KindPlan, runMain(os.Args[1:], os.Stdout)) }

func runMain(args []string, out io.Writer) error { return cli.Main(run.KindPlan, args, out) }
