// Package run is the unified experiment API behind every hmscs entry
// point: a single serialisable Experiment spec (versioned JSON,
// round-trippable, one Kind per former binary) executed by one
// context-aware Runner that emits typed progress events and writes
// results through pluggable sinks.
//
// The six cmd/ binaries are thin shells over this package: each builds
// an Experiment (from a -spec file, legacy flags, or both — explicit
// flags override spec fields), calls Run, and hands the Outcome to a
// markdown sink whose output is byte-identical to the pre-redesign
// binaries. The resident server (internal/serve, cmd/hmscs-server)
// plugs in at the same seam: it deserialises an Experiment, calls Run
// with a deadline and streams the events, and its worker fleet
// (internal/dist) executes the run's units through Options.Units.
package run

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/output"
	"hmscs/internal/plan"
	"hmscs/internal/scenario"
)

// Kind selects what an Experiment does — one per former binary.
type Kind string

// The experiment kinds.
const (
	// KindAnalyze evaluates the analytical model on one configuration.
	KindAnalyze Kind = "analyze"
	// KindSimulate runs the discrete-event system simulator.
	KindSimulate Kind = "simulate"
	// KindNetsim runs the switch-level network simulator.
	KindNetsim Kind = "netsim"
	// KindFigure regenerates the paper's tables and figures.
	KindFigure Kind = "figure"
	// KindSweep sweeps one design parameter across values.
	KindSweep Kind = "sweep"
	// KindPlan screens a design space against an SLO and verifies the
	// Pareto frontier by simulation.
	KindPlan Kind = "plan"
)

// Kinds lists every experiment kind in canonical order.
func Kinds() []Kind {
	return []Kind{KindAnalyze, KindSimulate, KindNetsim, KindFigure, KindSweep, KindPlan}
}

// SpecVersion is the experiment-spec schema version this package reads
// and writes.
const SpecVersion = 1

// Experiment is the declarative, JSON-round-trippable description of one
// hmscs experiment. It is a pure value: a configuration, a design space
// or an arrival trace travels inline, and no field names a file, so the
// same spec means the same experiment on every host that runs it.
// Zero-valued fields mean "the documented default";
// Normalize fills them in, so a minimal spec like
//
//	{"v": 1, "kind": "simulate", "system": {"clusters": 64}}
//
// is complete. Which sections matter depends on Kind; irrelevant
// sections are ignored.
type Experiment struct {
	// V is the spec schema version; 0 is treated as SpecVersion, anything
	// else but SpecVersion is rejected.
	V int `json:"v"`
	// Kind selects the experiment type.
	Kind Kind `json:"kind"`
	// System describes the multi-cluster system under study (all kinds
	// except netsim and plan, which carry their own topology sources).
	System *SystemSpec `json:"system,omitempty"`
	// Workload selects the arrival process, destination pattern and
	// service distribution.
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// Run controls the simulation procedure (seed, window, replications).
	Run *RunSpec `json:"run,omitempty"`
	// Precision, when RelWidth > 0, replaces fixed replications with the
	// adaptive sequential stopping rule.
	Precision *PrecisionSpec `json:"precision,omitempty"`
	// Scenario, when present, turns the run dynamic: the simulators apply
	// its fault/churn timeline and rate profile over a fixed horizon and
	// the outcome carries a transient (time-sliced) analysis instead of
	// the stationary message-count window. Read by simulate, netsim,
	// sweep and plan experiments.
	Scenario *scenario.Spec `json:"scenario,omitempty"`
	// Analyze, Simulate, Net, Figure, Sweep and Plan carry the
	// kind-specific options; only the section matching Kind is used.
	Analyze  *AnalyzeSpec  `json:"analyze,omitempty"`
	Simulate *SimulateSpec `json:"simulate,omitempty"`
	Net      *NetSpec      `json:"net,omitempty"`
	Figure   *FigureSpec   `json:"figure,omitempty"`
	Sweep    *SweepSpec    `json:"sweep,omitempty"`
	Plan     *PlanSpec     `json:"plan,omitempty"`
}

// SystemSpec mirrors the shared system flags: it describes an HMSCS
// configuration either inline (Config) or by the paper's
// parameterisation. A non-nil Config overrides every other field.
type SystemSpec struct {
	// Config is a complete system description, in the JSON form of a
	// configuration file.
	Config *core.Config `json:"config,omitempty"`
	// Case is the Table 1 scenario (1 or 2); ignored when ICN1/ECN are set.
	Case int `json:"case,omitempty"`
	// Clusters is the cluster count C.
	Clusters int `json:"clusters,omitempty"`
	// Nodes is the per-cluster processor count N0 (0 = Total/Clusters).
	Nodes int `json:"nodes,omitempty"`
	// Total is the total processor count used when Nodes is 0.
	Total int `json:"total,omitempty"`
	// MsgBytes is the message size M in bytes.
	MsgBytes int `json:"msg_bytes,omitempty"`
	// Arch is the interconnect architecture: non-blocking or blocking.
	Arch string `json:"arch,omitempty"`
	// Lambda is the per-processor message rate (msg/s).
	Lambda float64 `json:"lambda_per_s,omitempty"`
	// ICN1 and ECN override the scenario's technologies (set together).
	ICN1 string `json:"icn1,omitempty"`
	ECN  string `json:"ecn,omitempty"`
	// Ports and SwLatUS are the switch-fabric parameters.
	Ports   int     `json:"ports,omitempty"`
	SwLatUS float64 `json:"switch_latency_us,omitempty"`
}

// WorkloadSpec mirrors the shared workload flags: the traffic's arrival
// process, destination pattern and service distribution, in the same
// string spellings the CLIs accept.
type WorkloadSpec struct {
	// Arrival is the arrival-process spec: poisson, periodic,
	// mmpp[:<frac>[:<dwell>]], pareto[:<alpha>], weibull[:<shape>], trace.
	Arrival string `json:"arrival,omitempty"`
	// BurstRatio is the MMPP burst-to-idle rate ratio.
	BurstRatio float64 `json:"burst_ratio,omitempty"`
	// Trace is the arrival trace Arrival "trace" replays: timestamps in
	// seconds (workload.ReadTrace's form).
	Trace []float64 `json:"trace,omitempty"`
	// Pattern picks destinations: uniform, local:<p>, hotspot:<p>.
	Pattern string `json:"pattern,omitempty"`
	// Service is the service distribution: exp, det, erlang4, h2.
	Service string `json:"service,omitempty"`
}

// RunSpec mirrors the shared simulation-procedure flags.
type RunSpec struct {
	// Seed is the base random seed; replication seeds derive from it.
	Seed uint64 `json:"seed,omitempty"`
	// Messages is the measured window per run (paper: 10000).
	Messages int `json:"messages,omitempty"`
	// Warmup is the fixed warm-up prefix discarded before measurement
	// (ignored in precision mode, which uses MSER-5 deletion).
	Warmup int `json:"warmup,omitempty"`
	// Reps is the fixed replication count (ignored in precision mode).
	Reps int `json:"reps,omitempty"`
	// Open switches to open-loop sources (ablation of assumption 4).
	Open bool `json:"open,omitempty"`
	// Shards is accepted and ignored, so specs written when one
	// replication could be split across cores still parse; it must not
	// be negative. Every replication runs on one core (DESIGN.md §9), and
	// SpecHash clears the field, so it never moves a cache key.
	Shards int `json:"shards,omitempty"`
}

// PrecisionSpec mirrors the adaptive output-analysis flags. A zero
// RelWidth means fixed-replication mode (except for plan experiments,
// which always verify adaptively and default to ±5%).
type PrecisionSpec struct {
	// RelWidth is the target CI half-width as a fraction of the mean.
	RelWidth float64 `json:"rel_width,omitempty"`
	// Confidence is the level the target is judged at.
	Confidence float64 `json:"confidence,omitempty"`
	// MaxReps caps the adaptive replication set.
	MaxReps int `json:"max_reps,omitempty"`
}

// AnalyzeSpec carries the analyze-kind options.
type AnalyzeSpec struct {
	// MVA also solves the exact closed-network cross-check.
	MVA bool `json:"mva,omitempty"`
	// Verbose prints per-centre metrics.
	Verbose bool `json:"verbose,omitempty"`
}

// SimulateSpec carries the simulate-kind options.
type SimulateSpec struct {
	// Verbose prints per-centre statistics of replication 1.
	Verbose bool `json:"verbose,omitempty"`
	// NoCompare skips the analytical-model comparison (the CLI's
	// -compare=false).
	NoCompare bool `json:"no_compare,omitempty"`
	// TraceOut, when set, makes Run record replication 1's message
	// journeys (SimulateOutcome.Trace) and the report name this file.
	// Run writes nothing: the caller writes the CSV from the outcome, so
	// the field is not part of the wire spec.
	TraceOut string `json:"-"`
}

// NetSpec carries the netsim-kind topology and load, mirroring the
// switch-level simulator's flags. A non-nil Config resolves one
// communication network of a system description instead.
type NetSpec struct {
	// Config is the system description, in the JSON form of a
	// configuration file, one of whose networks is simulated at switch
	// level.
	Config *core.Config `json:"config,omitempty"`
	// Net selects which network of Config: icn1, ecn1 or icn2.
	Net string `json:"net,omitempty"`
	// Cluster is the cluster index for Net icn1/ecn1.
	Cluster int `json:"cluster,omitempty"`
	// Topo is the topology: fat-tree or linear-array.
	Topo string `json:"topo,omitempty"`
	// N is the endpoint count.
	N int `json:"n,omitempty"`
	// Ports and SwLatUS are the switch parameters.
	Ports   int     `json:"ports,omitempty"`
	SwLatUS float64 `json:"switch_latency_us,omitempty"`
	// Tech is the link technology (GE, FE, Myrinet, Infiniband).
	Tech string `json:"tech,omitempty"`
	// Lambda is the per-endpoint message rate (msg/s).
	Lambda float64 `json:"lambda_per_s,omitempty"`
	// MsgBytes is the message size in bytes.
	MsgBytes int `json:"msg_bytes,omitempty"`
}

// FigureSpec carries the figure-kind options.
type FigureSpec struct {
	// What is the comma-separated selection: tables, fig4..fig7, ratio,
	// ablation, future, all.
	What string `json:"what,omitempty"`
	// Format renders figures as table, csv, plot or all.
	Format string `json:"format,omitempty"`
	// Fast skips simulation (analytic series only).
	Fast bool `json:"fast,omitempty"`
}

// SweepSpec carries the sweep-kind options in the CLI's comma-list
// spellings.
type SweepSpec struct {
	// Var is the swept parameter: clusters, lambda, msg, ports, locality,
	// arrival.
	Var string `json:"var,omitempty"`
	// Ints and Floats are comma-separated sweep values for the integer
	// and float variables; empty uses the variable's documented default.
	Ints   string `json:"ints,omitempty"`
	Floats string `json:"floats,omitempty"`
	// Specs is the comma-separated arrival-spec list for Var "arrival".
	Specs string `json:"specs,omitempty"`
	// Fast skips simulation.
	Fast bool `json:"fast,omitempty"`
}

// PlanSpec carries the plan-kind options: design-space source, SLO, cost
// model and verification budget.
type PlanSpec struct {
	// Space is the design space, in the JSON form of a design-space
	// file; nil uses the documented default space.
	Space *plan.Space `json:"space,omitempty"`
	// SLOLatencyMs is the mean-latency budget in milliseconds.
	SLOLatencyMs float64 `json:"slo_latency_ms,omitempty"`
	// SLOUtil caps the bottleneck utilisation.
	SLOUtil float64 `json:"slo_util,omitempty"`
	// MinNodes is the deployment-size requirement.
	MinNodes int `json:"min_nodes,omitempty"`
	// SLORecoveryS bounds the recovery time after an injected fault in
	// seconds (0 = recovering inside the horizon suffices); read only
	// when the experiment carries a scenario section.
	SLORecoveryS float64 `json:"slo_recovery_s,omitempty"`
	// NodeCost prices one processor; PortCosts overrides per-port prices
	// as tech=cost pairs ("FE=0.02,GE=0.1").
	NodeCost  float64 `json:"node_cost,omitempty"`
	PortCosts string  `json:"port_costs,omitempty"`
	// Lambda and MsgBytes override the space's offered load and message
	// size (0 = keep the space's).
	Lambda   float64 `json:"lambda_per_s,omitempty"`
	MsgBytes int     `json:"msg_bytes,omitempty"`
	// Top is the number of frontier candidates verified by simulation.
	Top int `json:"top,omitempty"`
	// Format is md or csv.
	Format string `json:"format,omitempty"`
}

// Clone deep-copies the experiment: each section is copied by value,
// and the references inside them (the scenario, the system and net
// configurations, the arrival trace and the design space) are copied
// too. Run clones before normalizing so a caller's spec is never
// mutated (and two concurrent Runs on one spec never race). The
// experiment service clones for the same reason before computing a
// spec's cache key.
func (e *Experiment) Clone() *Experiment {
	c := *e
	if e.System != nil {
		s := *e.System
		s.Config = s.Config.Clone()
		c.System = &s
	}
	if e.Workload != nil {
		s := *e.Workload
		s.Trace = slices.Clone(s.Trace)
		c.Workload = &s
	}
	if e.Run != nil {
		s := *e.Run
		c.Run = &s
	}
	if e.Precision != nil {
		s := *e.Precision
		c.Precision = &s
	}
	c.Scenario = e.Scenario.Clone()
	if e.Analyze != nil {
		s := *e.Analyze
		c.Analyze = &s
	}
	if e.Simulate != nil {
		s := *e.Simulate
		c.Simulate = &s
	}
	if e.Net != nil {
		s := *e.Net
		s.Config = s.Config.Clone()
		c.Net = &s
	}
	if e.Figure != nil {
		s := *e.Figure
		c.Figure = &s
	}
	if e.Sweep != nil {
		s := *e.Sweep
		c.Sweep = &s
	}
	if e.Plan != nil {
		s := *e.Plan
		s.Space = s.Space.Clone()
		c.Plan = &s
	}
	return &c
}

// NewExperiment returns a normalized experiment of the given kind with
// every section at its documented default — the spec equivalent of
// invoking the kind's binary with no flags.
func NewExperiment(kind Kind) *Experiment {
	e := &Experiment{V: SpecVersion, Kind: kind}
	e.Normalize()
	return e
}

// Normalize fills zero-valued fields with the documented defaults and
// materialises the sections the experiment's kind reads, so flag binding
// and the Runner see one complete spec. It is idempotent.
func (e *Experiment) Normalize() {
	if e.V == 0 {
		e.V = SpecVersion
	}
	if e.Workload == nil {
		e.Workload = &WorkloadSpec{}
	}
	if e.Run == nil {
		e.Run = &RunSpec{}
	}
	if e.Precision == nil {
		e.Precision = &PrecisionSpec{}
	}
	w, r, p := e.Workload, e.Run, e.Precision
	if w.Arrival == "" {
		w.Arrival = "poisson"
	}
	if w.BurstRatio == 0 {
		w.BurstRatio = 10
	}
	if w.Pattern == "" {
		w.Pattern = "uniform"
	}
	if w.Service == "" {
		if e.Kind == KindNetsim {
			w.Service = "det"
		} else {
			w.Service = "exp"
		}
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Messages == 0 {
		r.Messages = 10000
	}
	if r.Warmup == 0 {
		if e.Kind == KindNetsim {
			r.Warmup = 1000
		} else {
			r.Warmup = 2000
		}
	}
	if r.Reps == 0 {
		r.Reps = 3
	}
	if p.Confidence == 0 {
		p.Confidence = 0.95
	}
	if p.MaxReps == 0 {
		p.MaxReps = 64
	}
	e.Scenario.Normalize()
	switch e.Kind {
	case KindAnalyze, KindSimulate, KindSweep, KindFigure:
		if e.System == nil {
			e.System = &SystemSpec{}
		}
		e.System.normalize()
	}
	switch e.Kind {
	case KindAnalyze:
		if e.Analyze == nil {
			e.Analyze = &AnalyzeSpec{}
		}
	case KindSimulate:
		if e.Simulate == nil {
			e.Simulate = &SimulateSpec{}
		}
	case KindNetsim:
		if e.Net == nil {
			e.Net = &NetSpec{}
		}
		e.Net.normalize()
	case KindFigure:
		if e.Figure == nil {
			e.Figure = &FigureSpec{}
		}
		if e.Figure.What == "" {
			e.Figure.What = "all"
		}
		if e.Figure.Format == "" {
			e.Figure.Format = "table"
		}
	case KindSweep:
		if e.Sweep == nil {
			e.Sweep = &SweepSpec{}
		}
		if e.Sweep.Var == "" {
			e.Sweep.Var = "clusters"
		}
	case KindPlan:
		if e.Plan == nil {
			e.Plan = &PlanSpec{}
		}
		e.Plan.normalize()
		// The planner always verifies adaptively: its historical default
		// is ±5% at 95%, and a zero precision flag selects it rather than
		// a fixed-replication mode the planner never had.
		if p.RelWidth == 0 {
			p.RelWidth = 0.05
		}
	}
}

func (s *SystemSpec) normalize() {
	if s.Case == 0 {
		s.Case = 1
	}
	if s.Clusters == 0 {
		s.Clusters = 16
	}
	if s.Total == 0 {
		s.Total = core.PaperTotalNodes
	}
	if s.MsgBytes == 0 {
		s.MsgBytes = 1024
	}
	if s.Arch == "" {
		s.Arch = "non-blocking"
	}
	if s.Lambda == 0 {
		s.Lambda = core.PaperLambda
	}
	if s.Ports == 0 {
		s.Ports = network.PaperSwitch.Ports
	}
	if s.SwLatUS == 0 {
		s.SwLatUS = network.PaperSwitch.Latency * 1e6
	}
}

func (n *NetSpec) normalize() {
	if n.Net == "" {
		n.Net = "icn2"
	}
	if n.Topo == "" {
		n.Topo = "fat-tree"
	}
	if n.N == 0 {
		n.N = 32
	}
	if n.Ports == 0 {
		n.Ports = 8
	}
	if n.SwLatUS == 0 {
		n.SwLatUS = 10
	}
	if n.Tech == "" {
		n.Tech = "GE"
	}
	if n.Lambda == 0 {
		n.Lambda = 10000
	}
	if n.MsgBytes == 0 {
		n.MsgBytes = 1024
	}
}

func (p *PlanSpec) normalize() {
	if p.SLOLatencyMs == 0 {
		p.SLOLatencyMs = 2
	}
	if p.SLOUtil == 0 {
		p.SLOUtil = 0.95
	}
	if p.NodeCost == 0 {
		p.NodeCost = 1
	}
	if p.Top == 0 {
		p.Top = 3
	}
	if p.Format == "" {
		p.Format = "md"
	}
}

// Validate checks the spec's envelope: the schema version and kind.
// Section contents are validated where they are built, so errors carry
// the same wording as the legacy flag parsers.
func (e *Experiment) Validate() error {
	if e.V != SpecVersion && e.V != 0 {
		return fmt.Errorf("run: unsupported spec version %d (this build reads v%d)", e.V, SpecVersion)
	}
	switch e.Kind {
	case KindAnalyze, KindSimulate, KindNetsim, KindFigure, KindSweep, KindPlan:
	case "":
		return fmt.Errorf("run: spec is missing \"kind\" (one of %v)", Kinds())
	default:
		return fmt.Errorf("run: unknown experiment kind %q (one of %v)", e.Kind, Kinds())
	}
	if r := e.Run; r != nil {
		// Zero means "the default" to Normalize; a negative count has no
		// meaning and must fail here, before any cache lookup.
		for _, f := range []struct {
			name string
			v    int
		}{{"messages", r.Messages}, {"warmup", r.Warmup}, {"reps", r.Reps}, {"shards", r.Shards}} {
			if f.v < 0 {
				return fmt.Errorf("run: negative run.%s %d", f.name, f.v)
			}
		}
	}
	if p := e.Precision; p != nil {
		// The same ranges PrecisionSpec.Build and the transient estimator
		// enforce, checked whether or not rel_width selects adaptive mode,
		// so a bad section fails here and not inside a job.
		if !(p.RelWidth >= 0 && p.RelWidth < 1) {
			return fmt.Errorf("run: precision.rel_width must be in [0, 1), got %g", p.RelWidth)
		}
		if !(p.Confidence >= 0 && p.Confidence < 1) {
			return fmt.Errorf("run: precision.confidence must be in [0, 1) (0 means 0.95), got %g", p.Confidence)
		}
		if p.MaxReps < 0 {
			return fmt.Errorf("run: negative precision.max_reps %d", p.MaxReps)
		}
		// Plan experiments are always adaptive (Normalize defaults their
		// rel_width), and an adaptive cap must leave the stopping rule
		// its minimum replications.
		minReps := output.Precision{}.Normalized().MinReps
		if p.MaxReps > 0 && p.MaxReps < minReps && (p.RelWidth > 0 || e.Kind == KindPlan) {
			return fmt.Errorf("run: precision.max_reps %d is below the stopping rule's minimum of %d replications", p.MaxReps, minReps)
		}
	}
	if e.Scenario != nil {
		switch e.Kind {
		case KindAnalyze, KindFigure:
			return fmt.Errorf("run: a %s experiment cannot take a scenario timeline — dynamic runs need a simulator (use simulate, netsim, sweep or plan)", e.Kind)
		}
		if err := e.Scenario.Validate(); err != nil {
			return err
		}
		if e.Kind != KindPlan && e.Precision != nil && e.Precision.RelWidth > 0 {
			return fmt.Errorf("run: precision.rel_width and scenario are mutually exclusive for %s experiments: the sequential stopping rule assumes a stationary mean, which a fault timeline deliberately breaks (plan experiments combine them — precision drives the stationary verify, the scenario is an extra check)", e.Kind)
		}
	}
	return nil
}

// Parse reads an experiment from its JSON form, rejecting unknown fields
// (a typoed key silently ignored would make a spec lie), and returns it
// validated and normalized.
func Parse(data []byte) (*Experiment, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var e Experiment
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("run: parsing experiment: %w", err)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	e.Normalize()
	return &e, nil
}

// Load reads an experiment spec file (see Parse). It is the -spec
// loader, the one file the run package reads.
func Load(path string) (*Experiment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	e, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("run: %s: %w", path, err)
	}
	return e, nil
}

// Marshal renders the spec as indented JSON, the on-disk form Load
// reads. Marshal∘Parse is the identity on normalized specs.
func (e *Experiment) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("run: marshalling experiment: %w", err)
	}
	return append(data, '\n'), nil
}
