// Package cli is the command surface of the hmscs experiment binaries.
// Each binary is one call to Main with the experiment kind it runs;
// Main binds the kind's flags, as the commands table lists them,
// directly onto the fields of a run.Experiment spec, whose current
// values double as the flag defaults. That one mechanism gives every
// binary the same surface:
//
//   - with no -spec, the flag defaults are the documented defaults and a
//     legacy invocation builds exactly the spec it always implied;
//   - with -spec experiment.json, the file's values become the defaults
//     and explicitly-set flags override them (so a cookbook smoke run can
//     append -messages 100 to any spec);
//   - -emit streams progress events and the outcome summary as JSON
//     lines, and -timeout bounds the run through the Runner's context;
//   - -submit <addr> executes the same spec on a resident hmscs-server
//     instead, replaying its byte-identical event stream and report.
package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hmscs/internal/run"
	"hmscs/internal/scenario"
	"hmscs/internal/serve"
)

// Main is the whole of one experiment binary: it loads -spec (whose
// values become the flag defaults), binds the kind's flags from the
// commands table, parses args, and executes the spec locally or, with
// -submit, on a server, inside the kind's own steps if it has any.
func Main(kind run.Kind, args []string, stdout io.Writer) error {
	spec, err := preloadSpec(args, kind)
	if err != nil {
		return err
	}
	fs, x, wrap := newFlagSet(kind, spec)
	if err := fs.Parse(args); err != nil {
		return err
	}
	execute := func() (*run.Outcome, error) { return x.execute(spec, stdout) }
	if wrap == nil {
		_, err = execute()
		return err
	}
	return wrap(stdout, x.emit, execute)
}

// Exit ends kind's binary: on an error it prints it after the binary's
// name to stderr and exits 1.
func Exit(kind run.Kind, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", commands[kind].name, err)
		os.Exit(1)
	}
}

// newFlagSet binds every flag of kind's binary onto e: the shared
// experiment flags, -seed, -arrival and -precision, the kind's procedure
// and sections, and its own flags.
func newFlagSet(kind run.Kind, e *run.Experiment) (*flag.FlagSet, *experimentFlags, around) {
	c := commands[kind]
	fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
	x := new(experimentFlags)
	x.register(fs)
	c.procedure.bind(fs, e)
	bindArrival(fs, e.Workload)
	bindPrecision(fs, e.Precision)
	if c.sections&systemSection != 0 {
		bindSystem(fs, e.System)
	}
	if c.sections&netSection != 0 {
		bindNet(fs, e.Net)
	}
	if c.sections&planSection != 0 {
		bindPlan(fs, e.Plan)
	}
	if c.sections&scenarioSection != 0 {
		bindScenario(fs, e)
	}
	if c.flags == nil {
		return fs, x, nil
	}
	return fs, x, c.flags(fs, e)
}

// experimentFlags are the flags every binary shares that are not spec
// fields: the spec file, the JSONL event stream, the deadline, the
// remote-submission address, the telemetry switch and the worker-pool
// bound. -spec is resolved before parsing (preloadSpec) so the loaded
// spec can provide the other flags' defaults; -parallel changes how fast
// an experiment runs, never what it computes, so it is not a spec field.
type experimentFlags struct {
	spec, emit, submit string
	timeout            time.Duration
	telemetry          bool
	parallel           int
}

// register installs -spec, -emit, -timeout, -submit, -telemetry and
// -parallel.
func (x *experimentFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&x.spec, "spec", "", "experiment spec JSON (see run.Experiment); explicitly-set flags override its fields")
	fs.StringVar(&x.emit, "emit", "", "stream progress events and the outcome summary as JSON lines to this file (\"-\" = stdout)")
	fs.DurationVar(&x.timeout, "timeout", 0, "abort the experiment after this duration, e.g. 30s (0 = no limit); cancellation lands between replication units")
	fs.StringVar(&x.submit, "submit", "", "submit the experiment to the hmscs-server at this address (host:port or URL) instead of running locally; stdout and -emit then replay the server's byte-identical stream, and -parallel is governed by the server (docs/SERVER.md)")
	fs.BoolVar(&x.telemetry, "telemetry", false, "print the run's engine accounting (events, events/s, replications, generated messages, heap high-water) to stderr after the report")
	fs.IntVar(&x.parallel, "parallel", 0, "concurrent simulation workers (0 = all cores, 1 = sequential); results are identical for every value")
}

// runContext returns the Runner context implied by -timeout.
func (x *experimentFlags) runContext() (context.Context, context.CancelFunc) {
	if x.timeout > 0 {
		return context.WithTimeout(context.Background(), x.timeout)
	}
	return context.WithCancel(context.Background())
}

// openEmit opens the -emit target ("-" = stdout); with no -emit the
// writer is nil. The closer must run even when the run fails.
func (x *experimentFlags) openEmit(stdout io.Writer) (io.Writer, func() error, error) {
	switch x.emit {
	case "":
		return nil, func() error { return nil }, nil
	case "-":
		return stdout, func() error { return nil }, nil
	}
	f, err := os.Create(x.emit)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// execute runs the finished spec the way the flags asked, within the
// -timeout deadline: locally through run.Run with the markdown report
// on stdout and, with -emit, a JSONL sink (and, with -telemetry, the
// engine accounting on stderr); or — with -submit — remotely through a
// serve.Client, streaming the server's events into -emit and its
// rendered report onto stdout, both byte-identical to the local run of
// the same spec. The outcome is nil in remote mode (results live on the
// server; the replayed bytes are the contract). A replication count
// below 1 is rejected before anything runs or is submitted: an explicit
// -reps 0 is a user error, not a request for the default Normalize
// would restore.
func (x *experimentFlags) execute(spec *run.Experiment, stdout io.Writer) (*run.Outcome, error) {
	if spec.Run.Reps < 1 {
		return nil, fmt.Errorf("cli: need at least 1 replication, got -reps %d", spec.Run.Reps)
	}
	if x.submit != "" && x.telemetry {
		return nil, fmt.Errorf("cli: -telemetry reports local engine accounting and cannot be combined with -submit; use the server's GET /jobs/{id} resources instead")
	}
	events, closeEmit, err := x.openEmit(stdout)
	if err != nil {
		return nil, err
	}
	ctx, cancel := x.runContext()
	defer cancel()
	var out *run.Outcome
	if x.submit == "" {
		sinks := []run.Sink{run.NewMarkdownSink(stdout)}
		if events != nil {
			sinks = append(sinks, run.NewJSONLSink(events))
		}
		out, err = run.Run(ctx, spec, run.Options{Parallelism: x.parallel, Sinks: sinks})
	} else {
		_, err = serve.NewClient(x.submit).Execute(ctx, spec, stdout, events)
	}
	if cerr := closeEmit(); err == nil {
		err = cerr
	}
	if err == nil && x.telemetry && out != nil && out.Telemetry != nil {
		t := out.Telemetry
		fmt.Fprintf(os.Stderr, "telemetry: %d events in %.3fs (%.3g events/s), %d replications, %d generated, heap high-water %d\n",
			t.Sim.Events, t.WallSeconds, t.EventsPerSecond(), t.Replications, t.Sim.Generated, t.Sim.MaxPending)
	}
	return out, err
}

// preloadSpec scans args for -spec (before flag parsing, so the loaded
// experiment can provide every other flag's defaults) and returns the
// loaded spec, or a fresh default experiment of the binary's kind. A
// spec of a different kind is rejected: each binary runs one kind.
func preloadSpec(args []string, kind run.Kind) (*run.Experiment, error) {
	path := ""
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--" {
			break
		}
		name, value, hasValue := strings.Cut(a, "=")
		if name != "-spec" && name != "--spec" {
			continue
		}
		if hasValue {
			path = value
		} else if i+1 < len(args) {
			path = args[i+1]
		}
	}
	if path == "" {
		return run.NewExperiment(kind), nil
	}
	e, err := run.Load(path)
	if err != nil {
		return nil, err
	}
	if e.Kind != kind {
		return nil, fmt.Errorf("cli: %s holds a %q experiment; this binary runs %q", path, e.Kind, kind)
	}
	return e, nil
}

// bindSystem binds the system section's flags; the section's
// (normalized) values are the flag defaults.
func bindSystem(fs *flag.FlagSet, s *run.SystemSpec) {
	fs.StringVar(&s.ConfigPath, "config", s.ConfigPath, "JSON system description (overrides all other system flags; see core.SaveConfig)")
	fs.IntVar(&s.Case, "case", s.Case, "Table 1 scenario (1 or 2); ignored when -icn1/-ecn are set")
	fs.IntVar(&s.Clusters, "clusters", s.Clusters, "number of clusters C")
	fs.IntVar(&s.Nodes, "nodes", s.Nodes, "processors per cluster N0 (0 = total/clusters)")
	fs.IntVar(&s.Total, "total", s.Total, "total processors when -nodes is 0")
	fs.IntVar(&s.MsgBytes, "msg", s.MsgBytes, "message size in bytes")
	fs.StringVar(&s.Arch, "arch", s.Arch, "interconnect architecture: non-blocking or blocking")
	fs.Float64Var(&s.Lambda, "lambda", s.Lambda, "per-processor message rate (msg/s; default is the paper's λ under the millisecond reading, see DESIGN.md §2)")
	fs.StringVar(&s.ICN1, "icn1", s.ICN1, "override ICN1 technology (GE, FE, Myrinet, Infiniband)")
	fs.StringVar(&s.ECN, "ecn", s.ECN, "override ECN1/ICN2 technology")
	fs.IntVar(&s.Ports, "ports", s.Ports, "switch ports Pr")
	fs.Float64Var(&s.SwLatUS, "swlat", s.SwLatUS, "switch latency in µs")
}

// bindArrival binds -arrival, -burst-ratio and -trace onto the spec's
// workload section.
func bindArrival(fs *flag.FlagSet, w *run.WorkloadSpec) {
	fs.StringVar(&w.Arrival, "arrival", w.Arrival,
		"arrival process: poisson, periodic, mmpp[:<burst-frac>[:<dwell>]], pareto[:<alpha>], weibull[:<shape>], trace (see docs/SCENARIOS.md)")
	fs.Float64Var(&w.BurstRatio, "burst-ratio", w.BurstRatio,
		"MMPP burst-to-idle rate ratio (inf = on-off source); used by -arrival mmpp")
	fs.StringVar(&w.TraceFile, "trace", w.TraceFile,
		"arrival-trace CSV (one timestamp per line or first column); required by -arrival trace")
}

// bindPrecision binds the adaptive output-analysis flags onto the spec's
// precision section.
func bindPrecision(fs *flag.FlagSet, p *run.PrecisionSpec) {
	fs.Float64Var(&p.RelWidth, "precision", p.RelWidth, "adaptive stopping: extend replications until the CI half-width is at most this fraction of the mean (e.g. 0.02 = ±2%); replications are a quarter of -messages each with MSER-5 warmup deletion instead of -warmup/-reps; 0 = fixed -reps mode")
	fs.Float64Var(&p.Confidence, "confidence", p.Confidence, "confidence level for -precision stopping and its reported intervals (fixed -reps mode always reports 95%)")
	fs.IntVar(&p.MaxReps, "max-reps", p.MaxReps, "replication cap for -precision mode (reported as not converged when hit)")
}

// bindScenario installs -scenario: a JSON file holding the experiment's
// scenario section (a fault/churn/ramp timeline, see docs/SCENARIOS.md)
// that makes the run dynamic. The file is read at flag-parse time and
// replaces the spec's scenario section; validation happens with the rest
// of the spec when the experiment runs.
func bindScenario(fs *flag.FlagSet, e *run.Experiment) {
	fs.Func("scenario", "JSON scenario timeline (fault injection, churn, rate profiles; see docs/SCENARIOS.md §17-18) turning the run dynamic; overrides the spec's scenario section", func(path string) error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var s scenario.Spec
		if err := dec.Decode(&s); err != nil {
			return fmt.Errorf("parsing scenario %s: %w", path, err)
		}
		e.Scenario = &s
		return nil
	})
}

// bindNet binds the switch-level simulator's topology and load flags
// onto the spec's net section.
func bindNet(fs *flag.FlagSet, n *run.NetSpec) {
	fs.StringVar(&n.ConfigPath, "config", n.ConfigPath, "JSON system description (e.g. emitted by hmscs-plan -emit-configs); simulates one of its communication networks at switch level, overriding -topo/-n/-ports/-swlat/-tech/-lambda/-msg")
	fs.StringVar(&n.Net, "net", n.Net, "which network of -config to simulate: icn1, ecn1 or icn2")
	fs.IntVar(&n.Cluster, "cluster", n.Cluster, "cluster index for -config with -net icn1/ecn1")
	fs.StringVar(&n.Topo, "topo", n.Topo, "topology: fat-tree or linear-array")
	fs.IntVar(&n.N, "n", n.N, "endpoints")
	fs.IntVar(&n.Ports, "ports", n.Ports, "switch ports")
	fs.Float64Var(&n.SwLatUS, "swlat", n.SwLatUS, "switch latency in µs")
	fs.StringVar(&n.Tech, "tech", n.Tech, "link technology (GE, FE, Myrinet, Infiniband)")
	fs.Float64Var(&n.Lambda, "lambda", n.Lambda, "per-endpoint message rate (msg/s)")
	fs.IntVar(&n.MsgBytes, "msg", n.MsgBytes, "message size in bytes")
}

// bindPlan binds the capacity planner's flags onto the spec's plan
// section.
func bindPlan(fs *flag.FlagSet, p *run.PlanSpec) {
	fs.StringVar(&p.SpacePath, "space", p.SpacePath, "JSON design-space description (see plan.SaveSpace); empty = the documented default space")
	fs.Float64Var(&p.SLOLatencyMs, "slo-latency", p.SLOLatencyMs, "SLO: maximum mean message latency in ms")
	fs.Float64Var(&p.SLOUtil, "slo-util", p.SLOUtil, "SLO: maximum bottleneck-centre utilisation at the analytic fixed point")
	fs.IntVar(&p.MinNodes, "min-nodes", p.MinNodes, "SLO: minimum total processors the deployment must provide (0 = no requirement)")
	fs.Float64Var(&p.SLORecoveryS, "slo-recovery", p.SLORecoveryS, "SLO: recovery budget in seconds after a -scenario fault (0 = recovering inside the horizon suffices)")
	fs.Float64Var(&p.NodeCost, "node-cost", p.NodeCost, "cost of one processor in node units")
	fs.StringVar(&p.PortCosts, "port-costs", p.PortCosts, "per-port cost overrides as tech=cost pairs, e.g. FE=0.02,GE=0.1 (defaults: plan.DefaultCostModel)")
	fs.Float64Var(&p.Lambda, "lambda", p.Lambda, "override the space's per-processor offered load (msg/s; 0 = keep the space's)")
	fs.IntVar(&p.MsgBytes, "msg", p.MsgBytes, "override the space's message size in bytes (0 = keep the space's)")
	fs.IntVar(&p.Top, "top", p.Top, "frontier candidates to verify by simulation (0 = screen only)")
	fs.StringVar(&p.Format, "format", p.Format, "output format: md or csv")
	fs.StringVar(&p.EmitConfigs, "emit-configs", p.EmitConfigs, "directory to write each verified candidate's configuration JSON into (plan-candidate-<index>.json, runnable via -config)")
}
