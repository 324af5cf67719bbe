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
	"flag"
	"fmt"
	"io"
	"os"

	"hmscs/internal/cli"
	"hmscs/internal/run"
)

func main() {
	if err := runMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hmscs-plan:", err)
		os.Exit(1)
	}
}

func runMain(args []string, out io.Writer) error {
	spec, err := cli.PreloadSpec(args, run.KindPlan)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("hmscs-plan", flag.ContinueOnError)
	var xf cli.ExperimentFlags
	var parallel int
	xf.Register(fs)
	cli.BindPlan(fs, spec.Plan)
	cli.BindArrival(fs, spec.Workload)
	cli.BindPrecision(fs, spec.Precision)
	cli.BindScenario(fs, spec)
	cli.BindParallel(fs, &parallel)
	fs.Uint64Var(&spec.Run.Seed, "seed", spec.Run.Seed, "base random seed for the verification simulations")
	fs.IntVar(&spec.Run.Messages, "messages", spec.Run.Messages, "measurement window per configuration; precision-mode replications are a quarter of this")
	printSpace := fs.Bool("print-space", false, "print the design space as JSON and exit (a template for -space)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The flag defaults already carry a valid SLO, so an explicit zero is
	// a user error, not a request for the default — reject it here rather
	// than letting the spec's normalization silently restore it.
	if _, err := spec.Plan.BuildSLO(); err != nil {
		return err
	}
	if *printSpace {
		sp, err := spec.Plan.BuildSpace()
		if err != nil {
			return err
		}
		data, err := sp.MarshalJSON()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", data)
		return nil
	}
	// -emit used to be this binary's config-output directory; it is now
	// the shared JSONL stream. Catch the old spelling (a directory
	// target) with a pointer to -emit-configs instead of silently
	// writing an event stream where configs were expected.
	if info, statErr := os.Stat(xf.Emit); xf.Emit != "" && statErr == nil && info.IsDir() {
		return fmt.Errorf("-emit now streams JSONL events to a file; use -emit-configs %s to write candidate configurations", xf.Emit)
	}
	ctx, cancel := xf.Context()
	defer cancel()
	outcome, err := xf.Execute(ctx, spec, parallel, out)
	if err != nil {
		return err
	}
	// Progress notes go to stderr so -format csv stays parseable when
	// stdout is redirected to a file. Remote runs return no outcome:
	// -emit-configs writes on the server's filesystem.
	if outcome != nil {
		for _, e := range outcome.Plan.Emitted {
			fmt.Fprintf(os.Stderr, "wrote %s (%s)\n", e.Path, e.Label)
		}
	}
	return nil
}
