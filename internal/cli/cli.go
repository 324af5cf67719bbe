// Package cli holds the flag plumbing shared by the hmscs command-line
// tools. Every binary is a thin shell over the unified experiment API
// (internal/run): flags bind directly onto the fields of a run.Experiment
// spec, whose current values double as the flag defaults. That one
// mechanism gives each binary the whole redesigned surface for free:
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
	"hmscs/internal/telemetry"
)

// ExperimentFlags are the four flags shared by every binary: the spec
// file, the JSONL event stream, the deadline, and the remote-submission
// address.
type ExperimentFlags struct {
	// SpecPath mirrors -spec. The binaries resolve it BEFORE flag parsing
	// (PreloadSpec) so the loaded spec can provide the other flags'
	// defaults; the registered flag exists so parsing accepts it and the
	// help text documents it.
	SpecPath string
	// Emit is the JSONL output path ("-" for stdout).
	Emit string
	// Timeout bounds the experiment's wall-clock time (0 = no limit).
	Timeout time.Duration
	// Submit is the address of a running hmscs-server; when set, the
	// built spec is executed remotely instead of locally.
	Submit string
	// Telemetry prints the run's engine accounting (events, throughput)
	// to stderr after the report.
	Telemetry bool
}

// Register installs -spec, -emit, -timeout and -submit.
func (x *ExperimentFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&x.SpecPath, "spec", "", "experiment spec JSON (see run.Experiment); explicitly-set flags override its fields")
	fs.StringVar(&x.Emit, "emit", "", "stream progress events and the outcome summary as JSON lines to this file (\"-\" = stdout)")
	fs.DurationVar(&x.Timeout, "timeout", 0, "abort the experiment after this duration, e.g. 30s (0 = no limit); cancellation lands between replication units")
	fs.StringVar(&x.Submit, "submit", "", "submit the experiment to the hmscs-server at this address (host:port or URL) instead of running locally; stdout and -emit then replay the server's byte-identical stream, and -parallel is governed by the server (docs/SERVER.md)")
	fs.BoolVar(&x.Telemetry, "telemetry", false, "print the run's engine accounting (events, events/s, replications, generated messages, heap high-water) to stderr after the report")
}

// Context returns the Runner context implied by -timeout.
func (x *ExperimentFlags) Context() (context.Context, context.CancelFunc) {
	if x.Timeout > 0 {
		return context.WithTimeout(context.Background(), x.Timeout)
	}
	return context.WithCancel(context.Background())
}

// Sinks assembles the binary's sink list: the markdown sink on stdout
// (byte-identical to the pre-spec binaries) plus, with -emit, a JSONL
// sink. The returned closer flushes and closes the -emit file and must
// run even when Run fails.
func (x *ExperimentFlags) Sinks(stdout io.Writer) ([]run.Sink, func() error, error) {
	sinks := []run.Sink{run.NewMarkdownSink(stdout)}
	closer := func() error { return nil }
	if x.Emit != "" {
		w := stdout
		if x.Emit != "-" {
			f, err := os.Create(x.Emit)
			if err != nil {
				return nil, nil, err
			}
			w = f
			closer = f.Close
		}
		sinks = append(sinks, run.NewJSONLSink(w))
	}
	return sinks, closer, nil
}

// Execute runs the finished spec the way the binary's flags asked:
// locally through run.Run with the standard sinks (markdown on stdout,
// JSONL on -emit), or — with -submit — remotely through a serve.Client,
// streaming the server's events into -emit and its rendered report onto
// stdout, both byte-identical to the local run of the same spec. The
// outcome is nil in remote mode (results live on the server; the
// replayed bytes are the contract).
func (x *ExperimentFlags) Execute(ctx context.Context, spec *run.Experiment, parallelism int, stdout io.Writer) (*run.Outcome, error) {
	if x.Submit == "" {
		sinks, closeSinks, err := x.Sinks(stdout)
		if err != nil {
			return nil, err
		}
		out, err := run.Run(ctx, spec, run.Options{Parallelism: parallelism, Sinks: sinks})
		if cerr := closeSinks(); err == nil {
			err = cerr
		}
		if err == nil && x.Telemetry && out != nil {
			printTelemetry(os.Stderr, out.Telemetry)
		}
		return out, err
	}
	if x.Telemetry {
		return nil, fmt.Errorf("cli: -telemetry reports local engine accounting and cannot be combined with -submit; use the server's GET /jobs/{id} resources instead")
	}
	var events io.Writer
	closer := func() error { return nil }
	if x.Emit != "" {
		if x.Emit == "-" {
			events = stdout
		} else {
			f, err := os.Create(x.Emit)
			if err != nil {
				return nil, err
			}
			events = f
			closer = f.Close
		}
	}
	_, err := serve.NewClient(x.Submit).Execute(ctx, spec, stdout, events)
	if cerr := closer(); err == nil {
		err = cerr
	}
	return nil, err
}

// printTelemetry renders the -telemetry stderr summary from the run's
// engine accounting.
func printTelemetry(w io.Writer, t *telemetry.RunStats) {
	if t == nil {
		return
	}
	fmt.Fprintf(w, "telemetry: %d events in %.3fs (%.3g events/s), %d replications, %d generated, heap high-water %d\n",
		t.Sim.Events, t.WallSeconds, t.EventsPerSecond(), t.Replications, t.Sim.Generated, t.Sim.MaxPending)
}

// PreloadSpec scans args for -spec (before flag parsing, so the loaded
// experiment can provide every other flag's defaults) and returns the
// loaded spec, or a fresh default experiment of the binary's kind. A
// spec of a different kind is rejected: each binary runs one kind.
func PreloadSpec(args []string, kind run.Kind) (*run.Experiment, error) {
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

// BindSystem binds the shared system flags onto the spec's system
// section; the section's (normalized) values are the flag defaults.
func BindSystem(fs *flag.FlagSet, s *run.SystemSpec) {
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

// BindArrival binds -arrival, -burst-ratio and -trace onto the spec's
// workload section.
func BindArrival(fs *flag.FlagSet, w *run.WorkloadSpec) {
	fs.StringVar(&w.Arrival, "arrival", w.Arrival,
		"arrival process: poisson, periodic, mmpp[:<burst-frac>[:<dwell>]], pareto[:<alpha>], weibull[:<shape>], trace (see docs/SCENARIOS.md)")
	fs.Float64Var(&w.BurstRatio, "burst-ratio", w.BurstRatio,
		"MMPP burst-to-idle rate ratio (inf = on-off source); used by -arrival mmpp")
	fs.StringVar(&w.TraceFile, "trace", w.TraceFile,
		"arrival-trace CSV (one timestamp per line or first column); required by -arrival trace")
}

// BindPrecision binds the adaptive output-analysis flags onto the spec's
// precision section.
func BindPrecision(fs *flag.FlagSet, p *run.PrecisionSpec) {
	fs.Float64Var(&p.RelWidth, "precision", p.RelWidth, "adaptive stopping: extend replications until the CI half-width is at most this fraction of the mean (e.g. 0.02 = ±2%); replications are a quarter of -messages each with MSER-5 warmup deletion instead of -warmup/-reps; 0 = fixed -reps mode")
	fs.Float64Var(&p.Confidence, "confidence", p.Confidence, "confidence level for -precision stopping and its reported intervals (fixed -reps mode always reports 95%)")
	fs.IntVar(&p.MaxReps, "max-reps", p.MaxReps, "replication cap for -precision mode (reported as not converged when hit)")
}

// BindSimProcedure binds the system simulator's procedure flags (-seed,
// -messages, -warmup, -reps, -open) onto the spec's run section.
func BindSimProcedure(fs *flag.FlagSet, r *run.RunSpec) {
	fs.Uint64Var(&r.Seed, "seed", r.Seed, "random seed")
	fs.IntVar(&r.Messages, "messages", r.Messages, "measured messages per run (paper: 10000)")
	fs.IntVar(&r.Warmup, "warmup", r.Warmup, "warm-up messages discarded before measurement")
	fs.IntVar(&r.Reps, "reps", r.Reps, "independent replications")
	fs.BoolVar(&r.Open, "open", r.Open, "open-loop sources (ablation of assumption 4)")
}

// BindSimWorkload binds -service and -pattern with the system
// simulator's help text.
func BindSimWorkload(fs *flag.FlagSet, w *run.WorkloadSpec) {
	fs.StringVar(&w.Service, "service", w.Service, "service distribution: exp, det, erlang4, h2")
	fs.StringVar(&w.Pattern, "pattern", w.Pattern, "traffic pattern: uniform, local:<p>, hotspot:<p>")
}

// BindScenario installs -scenario: a JSON file holding the experiment's
// scenario section (a fault/churn/ramp timeline, see docs/SCENARIOS.md)
// that makes the run dynamic. The file is read at flag-parse time and
// replaces the spec's scenario section; validation happens with the rest
// of the spec when the experiment runs.
func BindScenario(fs *flag.FlagSet, e *run.Experiment) {
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

// BindParallel binds the worker-pool bound (an execution option, not
// part of the spec: it changes how fast an experiment runs, never what
// it computes).
func BindParallel(fs *flag.FlagSet, p *int) {
	fs.IntVar(p, "parallel", *p, "concurrent simulation workers (0 = all cores, 1 = sequential); results are identical for every value")
}

// BindNet binds the switch-level simulator's topology and load flags
// onto the spec's net section.
func BindNet(fs *flag.FlagSet, n *run.NetSpec) {
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

// BindPlan binds the capacity planner's flags onto the spec's plan
// section.
func BindPlan(fs *flag.FlagSet, p *run.PlanSpec) {
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
