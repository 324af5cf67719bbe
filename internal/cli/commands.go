package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hmscs/internal/run"
)

// command is one experiment binary's flag surface beyond what every
// binary shares (the experiment flags, -seed, -arrival and -precision).
type command struct {
	name      string // binary name, shown in usage
	sections  section
	procedure procedure
	// flags binds the kind's own flags and returns its steps around the
	// run, or nil.
	flags func(fs *flag.FlagSet, e *run.Experiment) around
}

// section is a spec section whose flags read the same for every kind
// that binds them.
type section uint8

const (
	systemSection section = 1 << iota
	netSection
	planSection
	scenarioSection
)

// procedure holds the help line of each run- and workload-section flag
// a kind binds. The kinds share these names but not their wording; an
// empty line leaves the flag unbound, except -seed, which every kind
// binds.
type procedure struct {
	seed, messages, warmup, reps, open, service, pattern string
}

// simProcedure is the system simulator's procedure, bound by the
// simulate and sweep kinds.
var simProcedure = procedure{
	seed:     "random seed",
	messages: "measured messages per run (paper: 10000)",
	warmup:   "warm-up messages discarded before measurement",
	reps:     "independent replications",
	open:     "open-loop sources (ablation of assumption 4)",
	service:  "service distribution: exp, det, erlang4, h2",
	pattern:  "traffic pattern: uniform, local:<p>, hotspot:<p>",
}

// around is a kind's own work around the shared run, called once the
// flags are parsed: it runs the experiment by calling execute, or ends
// the invocation without it.
type around func(stdout io.Writer, emit string, execute func() error) error

// commands is every experiment binary's surface, keyed by the kind it
// runs.
var commands = map[run.Kind]command{
	run.KindAnalyze: {
		name:      "hmscs-analyze",
		sections:  systemSection,
		procedure: procedure{seed: "random seed for the -precision simulation check"},
		flags:     analyzeFlags,
	},
	run.KindSimulate: {
		name:      "hmscs-sim",
		sections:  systemSection | scenarioSection,
		procedure: simProcedure,
		flags:     simulateFlags,
	},
	run.KindNetsim: {
		name:     "hmscs-netsim",
		sections: netSection | scenarioSection,
		procedure: procedure{
			seed:     "random seed",
			messages: "measured messages",
			warmup:   "warm-up messages",
			reps:     "independent replications of a -scenario run (stationary fixed mode runs one network)",
			service:  "per-link service distribution: det or exp",
			pattern:  "traffic pattern: uniform, local:<p>, hotspot:<p> (switches act as clusters)",
		},
	},
	run.KindFigure: {
		name: "hmscs-figures",
		procedure: procedure{
			seed:     "base random seed",
			messages: "measured messages per replication (paper: 10000)",
			reps:     "simulation replications per point",
		},
		flags: figureFlags,
	},
	run.KindSweep: {
		name:      "hmscs-sweep",
		sections:  systemSection | scenarioSection,
		procedure: simProcedure,
		flags:     sweepFlags,
	},
	run.KindPlan: {
		name:     "hmscs-plan",
		sections: planSection | scenarioSection,
		procedure: procedure{
			seed:     "base random seed for the verification simulations",
			messages: "measurement window per configuration; precision-mode replications are a quarter of this",
			reps:     "replications per verified candidate in the -scenario check (verification itself stops by -precision)",
		},
		flags: planFlags,
	},
}

// bind installs the procedure's flags onto the spec's run and workload
// sections.
func (p procedure) bind(fs *flag.FlagSet, e *run.Experiment) {
	r, w := e.Run, e.Workload
	fs.Uint64Var(&r.Seed, "seed", r.Seed, p.seed)
	if p.messages != "" {
		fs.IntVar(&r.Messages, "messages", r.Messages, p.messages)
	}
	if p.warmup != "" {
		fs.IntVar(&r.Warmup, "warmup", r.Warmup, p.warmup)
	}
	if p.reps != "" {
		fs.IntVar(&r.Reps, "reps", r.Reps, p.reps)
	}
	if p.open != "" {
		fs.BoolVar(&r.Open, "open", r.Open, p.open)
	}
	if p.service != "" {
		fs.StringVar(&w.Service, "service", w.Service, p.service)
	}
	if p.pattern != "" {
		fs.StringVar(&w.Pattern, "pattern", w.Pattern, p.pattern)
	}
}

func analyzeFlags(fs *flag.FlagSet, e *run.Experiment) around {
	fs.BoolVar(&e.Analyze.MVA, "mva", e.Analyze.MVA, "also solve the exact closed-network MVA cross-check")
	fs.BoolVar(&e.Analyze.Verbose, "v", e.Analyze.Verbose, "print per-centre metrics")
	return nil
}

func simulateFlags(fs *flag.FlagSet, e *run.Experiment) around {
	fs.BoolVar(&e.Simulate.Verbose, "v", e.Simulate.Verbose, "print per-centre statistics of replication 1")
	compare := fs.Bool("compare", !e.Simulate.NoCompare, "also run the analytical model and report the error")
	fs.StringVar(&e.Simulate.TraceOut, "trace-out", e.Simulate.TraceOut, "record replication 1's message journeys to this CSV file (-trace is the arrival-trace input)")
	return func(_ io.Writer, _ string, execute func() error) error {
		e.Simulate.NoCompare = !*compare
		return execute()
	}
}

func figureFlags(fs *flag.FlagSet, e *run.Experiment) around {
	fs.StringVar(&e.Figure.What, "what", e.Figure.What, "what to produce: tables, fig4, fig5, fig6, fig7, ratio, ablation, future, all")
	fs.StringVar(&e.Figure.Format, "format", e.Figure.Format, "output format for figures: table, csv, plot, all")
	fs.BoolVar(&e.Figure.Fast, "fast", e.Figure.Fast, "skip simulation (analytic series only)")
	return nil
}

func sweepFlags(fs *flag.FlagSet, e *run.Experiment) around {
	fs.StringVar(&e.Sweep.Var, "var", e.Sweep.Var, "swept parameter: clusters, lambda, msg, ports, locality, arrival")
	fs.StringVar(&e.Sweep.Ints, "ints", e.Sweep.Ints, "comma-separated integer sweep values (clusters, msg, ports)")
	fs.StringVar(&e.Sweep.Floats, "floats", e.Sweep.Floats, "comma-separated float sweep values (lambda, locality)")
	fs.StringVar(&e.Sweep.Specs, "specs", e.Sweep.Specs, "comma-separated arrival specs for -var arrival (e.g. poisson,periodic,mmpp,pareto:1.5)")
	fs.BoolVar(&e.Sweep.Fast, "fast", e.Sweep.Fast, "skip simulation")
	return nil
}

// planFlags adds -print-space, and the planner's steps before the run:
// the SLO check and the -emit guard.
func planFlags(fs *flag.FlagSet, e *run.Experiment) around {
	printSpace := fs.Bool("print-space", false, "print the design space as JSON and exit (a template for -space)")
	return func(stdout io.Writer, emit string, execute func() error) error {
		// The flag defaults already carry a valid SLO, so an explicit
		// zero is a user error, not a request for the default — reject
		// it here rather than letting the spec's normalization silently
		// restore it.
		if _, err := e.Plan.BuildSLO(); err != nil {
			return err
		}
		if *printSpace {
			sp, err := e.Plan.BuildSpace()
			if err != nil {
				return err
			}
			data, err := sp.MarshalJSON()
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s\n", data)
			return nil
		}
		// -emit used to be this binary's config-output directory; it is
		// now the shared JSONL stream. Catch the old spelling (a
		// directory target) with a pointer to -emit-configs instead of
		// silently writing an event stream where configs were expected.
		if info, err := os.Stat(emit); emit != "" && err == nil && info.IsDir() {
			return fmt.Errorf("-emit now streams JSONL events to a file; use -emit-configs %s to write candidate configurations", emit)
		}
		return execute()
	}
}
