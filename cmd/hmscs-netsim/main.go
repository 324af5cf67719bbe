// Command hmscs-netsim runs the switch-level network simulator on one
// communication network and compares it against the single-server
// abstraction the paper (and internal/sim) uses — a fidelity ladder:
// analytic M/M/1 model ← system simulator ← switch-level simulator.
// The simulator runs on the typed allocation-free event core shared with
// internal/sim (see DESIGN.md §3) and draws its traffic from the same
// workload generator (arrival × pattern × size, DESIGN.md §6), so every
// arrival process and destination pattern of hmscs-sim also runs here.
//
// It is a thin shell over the unified experiment API (internal/run): the
// flags build a "netsim" experiment spec, or load one with -spec and
// override its fields with any explicitly-set flags. Replications (a
// -scenario run's -reps, a -precision run's adaptive set) run through
// the same batch drivers as hmscs-sim's, on -parallel workers; the
// output is identical for every -parallel value.
//
// Examples:
//
//	hmscs-netsim -topo fat-tree -n 32 -ports 8 -lambda 20000 -msg 1024
//	hmscs-netsim -topo linear-array -n 96 -ports 8 -tech FE
//	hmscs-netsim -topo linear-array -n 64 -arrival mmpp -burst-ratio 20
//	hmscs-netsim -n 32 -pattern hotspot:0.3 -precision 0.05
//	hmscs-netsim -config plan.json -net icn2   # a system's second stage at
//	                                           # its own offered load (e.g.
//	                                           # emitted by hmscs-plan
//	                                           # -emit-configs)
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
		fmt.Fprintln(os.Stderr, "hmscs-netsim:", err)
		os.Exit(1)
	}
}

func runMain(args []string, out io.Writer) error {
	spec, err := cli.PreloadSpec(args, run.KindNetsim)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("hmscs-netsim", flag.ContinueOnError)
	var xf cli.ExperimentFlags
	var parallel int
	xf.Register(fs)
	cli.BindNet(fs, spec.Net)
	cli.BindArrival(fs, spec.Workload)
	cli.BindPrecision(fs, spec.Precision)
	cli.BindScenario(fs, spec)
	cli.BindParallel(fs, &parallel)
	fs.IntVar(&spec.Run.Messages, "messages", spec.Run.Messages, "measured messages")
	fs.IntVar(&spec.Run.Warmup, "warmup", spec.Run.Warmup, "warm-up messages")
	fs.IntVar(&spec.Run.Reps, "reps", spec.Run.Reps, "independent replications of a -scenario run (stationary fixed mode runs one network)")
	fs.Uint64Var(&spec.Run.Seed, "seed", spec.Run.Seed, "random seed")
	fs.StringVar(&spec.Workload.Service, "service", spec.Workload.Service, "per-link service distribution: det or exp")
	fs.StringVar(&spec.Workload.Pattern, "pattern", spec.Workload.Pattern, "traffic pattern: uniform, local:<p>, hotspot:<p> (switches act as clusters)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := xf.Context()
	defer cancel()
	_, err = xf.Execute(ctx, spec, parallel, out)
	return err
}
