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
// the same batch driver as hmscs-sim's, on -parallel workers; the
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
	"io"
	"os"

	"hmscs/internal/cli"
	"hmscs/internal/run"
)

func main() { cli.Exit(run.KindNetsim, runMain(os.Args[1:], os.Stdout)) }

func runMain(args []string, out io.Writer) error { return cli.Main(run.KindNetsim, args, out) }
