// Package hmscs is a Go reproduction of Javadi, Akbari & Abawajy,
// "Performance Analysis of Heterogeneous Multi-Cluster Systems" (ICPP
// Workshops 2005): an analytical queueing model for the mean message
// latency of multi-cluster systems, together with the discrete-event
// simulator used to validate it.
//
// The public facade re-exports the building blocks:
//
//   - system description (Config, Cluster, scenario presets of Table 1/2)
//   - the analytical model (Analyze) and the exact MVA cross-check
//     (AnalyzeMVA)
//   - the discrete-event simulator (Simulate, SimulateReplications)
//   - the figure harness (Figure, RunFigure) regenerating Figures 4-7
//
// Quick start:
//
//	cfg, err := hmscs.PaperConfig(hmscs.Case1, 16, 1024, hmscs.NonBlocking)
//	if err != nil { ... }
//	pred, err := hmscs.Analyze(cfg)      // model: mean latency in seconds
//	meas, err := hmscs.Simulate(cfg, hmscs.DefaultSimOptions()) // simulator
package hmscs

import (
	"context"
	"io"

	"hmscs/internal/analytic"
	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/output"
	"hmscs/internal/plan"
	"hmscs/internal/queueing"
	"hmscs/internal/run"
	"hmscs/internal/serve"
	"hmscs/internal/sim"
	"hmscs/internal/sweep"
	"hmscs/internal/workload"
)

// Unified experiment API --------------------------------------------------

// Experiment is the declarative, JSON-round-trippable description of one
// hmscs experiment — the single spec behind all six command-line tools
// (kind: analyze, simulate, netsim, figure, sweep or plan). Build one in
// code with NewExperiment, or load a -spec file with LoadExperiment.
type Experiment = run.Experiment

// ExperimentKind selects what an Experiment does.
type ExperimentKind = run.Kind

// The experiment kinds.
const (
	KindAnalyze  = run.KindAnalyze
	KindSimulate = run.KindSimulate
	KindNetsim   = run.KindNetsim
	KindFigure   = run.KindFigure
	KindSweep    = run.KindSweep
	KindPlan     = run.KindPlan
)

// RunOptions are Run's execution knobs (parallelism, progress callback,
// sinks) — deliberately separate from the Experiment, because they change
// how fast an experiment runs, never what it computes.
type RunOptions = run.Options

// Outcome is the structured result of one experiment.
type Outcome = run.Outcome

// Event is the typed progress notification Run emits while units
// complete: unit started/finished, replications so far, CI width.
type Event = run.Event

// Sink consumes an experiment's output stream: progress events while it
// runs, then the final Outcome.
type Sink = run.Sink

// NewExperiment returns a normalized experiment of the given kind with
// every field at its documented default.
func NewExperiment(kind ExperimentKind) *Experiment { return run.NewExperiment(kind) }

// LoadExperiment reads a JSON experiment spec (the -spec file format of
// every binary), validating and normalizing it.
func LoadExperiment(path string) (*Experiment, error) { return run.Load(path) }

// ParseExperiment reads an experiment from its JSON bytes.
func ParseExperiment(data []byte) (*Experiment, error) { return run.Parse(data) }

// Run executes the experiment under the context: cancellation or a
// deadline aborts mid-batch between replication units on the worker pool
// and returns ctx.Err(). Results are bit-identical at every
// RunOptions.Parallelism, including the replication counts the adaptive
// modes choose.
func Run(ctx context.Context, e *Experiment, opts RunOptions) (*Outcome, error) {
	return run.Run(ctx, e, opts)
}

// NewMarkdownSink renders outcomes as the human-readable report the
// command-line tools print (markdown tables, ASCII plots).
func NewMarkdownSink(w io.Writer) Sink { return run.NewMarkdownSink(w) }

// NewCSVSink renders outcomes as tabular CSV.
func NewCSVSink(w io.Writer) Sink { return run.NewCSVSink(w) }

// NewJSONLSink streams progress events and the outcome summary as one
// JSON object per line — the -emit format of every binary.
func NewJSONLSink(w io.Writer) Sink { return run.NewJSONLSink(w) }

// Experiment service -------------------------------------------------------

// ExperimentServer is the resident experiment service behind the
// hmscs-server binary: it schedules submitted Experiments on one shared
// bounded worker budget, streams each job's JSONL progress events over
// HTTP, and caches outcomes keyed by a hash of the normalized spec so
// identical specs replay byte-identically with no simulation work.
// Mount its Handler on an http.Server; see docs/SERVER.md.
type ExperimentServer = serve.Server

// ExperimentServerConfig sizes an ExperimentServer: the shared worker
// budget, the concurrent-job bound, the outcome-cache capacity and the
// submission-queue depth.
type ExperimentServerConfig = serve.Config

// ExperimentClient is the thin remote driver for a running
// ExperimentServer — the -submit flag of every binary goes through one.
type ExperimentClient = serve.Client

// ExperimentJobInfo is a submitted job's status snapshot on the wire.
type ExperimentJobInfo = serve.JobInfo

// NewExperimentServer starts an experiment service's scheduling workers;
// serve its Handler over HTTP and Close it to drain.
func NewExperimentServer(cfg ExperimentServerConfig) *ExperimentServer { return serve.New(cfg) }

// NewExperimentClient returns a client for the experiment server at addr
// (host:port or a full base URL).
func NewExperimentClient(addr string) *ExperimentClient { return serve.NewClient(addr) }

// System description -------------------------------------------------------

// Config describes an HMSCS multi-cluster system. See core.Config.
type Config = core.Config

// Cluster describes one cluster of a system.
type Cluster = core.Cluster

// Scenario selects a Table 1 network-heterogeneity case.
type Scenario = core.Scenario

// Table 1 scenarios.
const (
	// Case1 uses Gigabit Ethernet inside clusters and Fast Ethernet between
	// them.
	Case1 = core.Case1
	// Case2 swaps the two technologies.
	Case2 = core.Case2
)

// Technology holds an interconnect's latency/bandwidth parameters.
type Technology = network.Technology

// Built-in technologies (Table 2 plus extensions).
var (
	GigabitEthernet = network.GigabitEthernet
	FastEthernet    = network.FastEthernet
	Myrinet         = network.Myrinet
	Infiniband      = network.Infiniband
)

// Architecture selects the interconnect model of paper §5.
type Architecture = network.Architecture

// Interconnect architectures.
const (
	// NonBlocking is the full-bisection multi-stage fat-tree (§5.2).
	NonBlocking = network.NonBlocking
	// Blocking is the bisection-width-1 linear switch array (§5.3).
	Blocking = network.Blocking
)

// Switch holds switch-fabric parameters (ports, latency).
type Switch = network.Switch

// PaperSwitch is Table 2's 24-port, 10µs switch.
var PaperSwitch = network.PaperSwitch

// PaperLambda is the per-processor generation rate used by the paper's
// experiments under the millisecond reading documented in DESIGN.md.
const PaperLambda = core.PaperLambda

// NewSuperCluster builds the paper's homogeneous Super-Cluster system.
func NewSuperCluster(c, n0 int, lambda float64, icn1, ecn Technology,
	arch Architecture, sw Switch, msgBytes int) (*Config, error) {
	return core.NewSuperCluster(c, n0, lambda, icn1, ecn, arch, sw, msgBytes)
}

// PaperConfig builds the §6 validation platform (N=256, Table 2) for the
// given scenario, cluster count, message size and architecture.
func PaperConfig(s Scenario, clusters, msgBytes int, arch Architecture) (*Config, error) {
	return core.PaperConfig(s, clusters, msgBytes, arch)
}

// Analytical model ----------------------------------------------------------

// AnalyticResult is the model's output: mean latency (eq. 15), the
// effective-rate scale (eq. 7) and per-centre metrics.
type AnalyticResult = analytic.Result

// MVAResult is the exact closed-network cross-check's output.
type MVAResult = analytic.MVAResult

// Analyze evaluates the paper's analytical model.
func Analyze(cfg *Config) (*AnalyticResult, error) { return analytic.Analyze(cfg) }

// AnalyzeMVA solves the homogeneous system exactly by Mean Value Analysis.
func AnalyzeMVA(cfg *Config) (*MVAResult, error) { return analytic.AnalyzeMVA(cfg) }

// AnalyzeSCV generalises the model to M/G/1 service centres with the given
// squared coefficient of variation (0 = deterministic, 1 = exponential).
func AnalyzeSCV(cfg *Config, scv float64) (*AnalyticResult, error) {
	return analytic.AnalyzeSCV(cfg, scv)
}

// AnalyzeLocality generalises eq. 8's uniform-destination assumption to
// traffic with an explicit locality parameter (probability a message stays
// inside its source cluster), matching workload.LocalBias.
func AnalyzeLocality(cfg *Config, locality float64) (*AnalyticResult, error) {
	return analytic.AnalyzeLocality(cfg, locality)
}

// AnalyzeArrival generalises the model from Poisson to renewal-ish arrivals
// with the given interarrival squared coefficient of variation, via the
// Allen–Cunneen G/G/1 approximation: each centre's queueing delay is the
// M/M/1 delay scaled by (Ca²+1)/2. It is the model-side counterpart of
// SimOptions.Arrival (see DESIGN.md §6).
func AnalyzeArrival(cfg *Config, arrivalSCV float64) (*AnalyticResult, error) {
	return analytic.AnalyzeArrival(cfg, arrivalSCV)
}

// MulticlassResult is the multiclass closed-network solution (one customer
// class per cluster) for heterogeneous systems.
type MulticlassResult = queueing.MulticlassResult

// AnalyzeMulticlass solves the system as a closed multiclass network — the
// principled model for heterogeneous Cluster-of-Clusters systems, where
// clusters differ in size and request rate.
func AnalyzeMulticlass(cfg *Config) (*MulticlassResult, error) {
	return analytic.AnalyzeMulticlass(cfg)
}

// LoadConfig reads a JSON system description (see SaveConfig).
func LoadConfig(path string) (*Config, error) { return core.LoadConfig(path) }

// SaveConfig writes a configuration as JSON for later reuse with the CLIs'
// -config flag.
func SaveConfig(cfg *Config, path string) error { return core.SaveConfig(cfg, path) }

// Workload ------------------------------------------------------------------

// Arrival is an arrival-process family (next-interarrival sampling, mean
// rate preservation, interarrival SCV). Set SimOptions.Arrival to one of
// the implementations below to relax the paper's Poisson assumption 2.
type Arrival = workload.Arrival

// PoissonArrivals is the paper's assumption 2 (the default).
var PoissonArrivals = workload.Poisson{}

// PeriodicArrivals is the deterministic arrival process (SCV 0).
var PeriodicArrivals = workload.Periodic{}

// NewMMPP builds a mean-rate-preserving two-phase Markov-modulated Poisson
// process: burstRatio is the burst-to-idle rate ratio (+Inf = on-off
// source), burstFrac the stationary fraction of time spent bursting.
func NewMMPP(burstRatio, burstFrac float64) (*workload.MMPP, error) {
	return workload.NewMMPP(burstRatio, burstFrac)
}

// NewParetoArrivals builds a heavy-tailed renewal arrival process with
// Pareto(alpha) interarrival gaps (alpha > 1; alpha ≤ 2 has infinite
// variance).
func NewParetoArrivals(alpha float64) (*workload.Pareto, error) {
	return workload.NewPareto(alpha)
}

// NewWeibullArrivals builds a renewal arrival process with Weibull(shape)
// interarrival gaps (shape < 1 is heavier-tailed than exponential).
func NewWeibullArrivals(shape float64) (*workload.Weibull, error) {
	return workload.NewWeibull(shape)
}

// NewTraceArrivals builds a trace-replay arrival process from non-decreasing
// absolute timestamps; replay is RNG-free and deterministic.
func NewTraceArrivals(timestamps []float64) (*workload.Trace, error) {
	return workload.NewTrace(timestamps)
}

// Simulation ----------------------------------------------------------------

// SimOptions controls a simulation run (seed, message counts, service
// distribution, open/closed loop, arrival process, traffic pattern).
type SimOptions = sim.Options

// SimResult is one simulation run's output.
type SimResult = sim.Result

// ReplicatedResult aggregates independent replications.
type ReplicatedResult = sim.Replicated

// DefaultSimOptions mirrors the paper's procedure (10,000 messages) with a
// warm-up prefix.
func DefaultSimOptions() SimOptions { return sim.DefaultOptions() }

// Simulate runs one discrete-event simulation of the configuration.
func Simulate(cfg *Config, opts SimOptions) (*SimResult, error) { return sim.Run(cfg, opts) }

// SimulateReplications runs n independent replications in parallel and
// aggregates mean latency with a 95% confidence interval.
func SimulateReplications(cfg *Config, opts SimOptions, n int) (*ReplicatedResult, error) {
	return sim.RunReplicationsCtx(context.Background(), cfg, opts, n, 0, nil)
}

// Precision is a relative-precision target for adaptive simulation: run
// until the confidence half-width on the mean latency is at most
// RelWidth·mean (see internal/output for the stopping rule).
type Precision = output.Precision

// PrecisionResult is an adaptive run's aggregate plus its stopping
// bookkeeping (replications used, effective sample size, convergence).
type PrecisionResult = sim.PrecisionResult

// SimulateToPrecision replaces the fixed replication count with the
// sequential stopping rule: replications (each a quarter of
// opts.MeasuredMessages, warmup handled by MSER-5 deletion) are added on
// the worker pool until the target is met. Results are bit-identical at
// every parallelism level.
func SimulateToPrecision(cfg *Config, opts SimOptions, target Precision) (*PrecisionResult, error) {
	res, err := sim.RunPrecisionUnitsCtx(context.Background(), []sim.Unit{{Cfg: cfg, Opts: opts}}, target, 0, nil, nil)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// Capacity planning ----------------------------------------------------------

// DesignSpace is a declarative space of candidate deployments for the
// SLO-driven capacity planner (see internal/plan and DESIGN.md §7).
type DesignSpace = plan.Space

// SLO is the service-level objective the planner screens against: a mean
// latency budget, a bottleneck-utilisation cap and a deployment size.
type SLO = plan.SLO

// CostModel prices candidates: processors plus per-technology switch ports.
type CostModel = plan.CostModel

// PlanCandidate is one screened candidate with its cost, analytic latency
// prediction, bottleneck and feasibility verdict. Candidates share cluster
// storage, so treat its Cfg as read-only.
type PlanCandidate = plan.ScreenResult

// PlanVerified pairs a frontier candidate with its precision-mode
// simulation estimate and the model-vs-simulation gap.
type PlanVerified = plan.VerifiedCandidate

// DefaultDesignSpace returns the documented default planning space
// (>= 1000 candidates around the paper's platform).
func DefaultDesignSpace() *DesignSpace { return plan.DefaultSpace() }

// DefaultCostModel prices processors at 1 node unit and switch ports at
// relative technology prices.
func DefaultCostModel() CostModel { return plan.DefaultCostModel() }

// PlanScreen enumerates the space and screens every candidate through the
// analytic model (with the G/G/1 correction for a finite non-Poisson
// arrivalSCV), pricing and scoring each against the SLO. Results are
// bit-identical at every parallelism level.
func PlanScreen(sp *DesignSpace, slo SLO, cost CostModel, arrivalSCV float64, parallelism int) ([]PlanCandidate, error) {
	return plan.Screen(sp, slo, cost, arrivalSCV, parallelism)
}

// PlanFrontier reduces screened candidates to the Pareto frontier on
// (cost, predicted latency), cheapest first.
func PlanFrontier(results []PlanCandidate) []PlanCandidate { return plan.Frontier(results) }

// PlanVerify simulates the k cheapest frontier candidates to the given
// precision target and reports the per-candidate model-vs-simulation gap.
func PlanVerify(frontier []PlanCandidate, k int, slo SLO, opts SimOptions, prec Precision, parallelism int) ([]PlanVerified, error) {
	return plan.VerifyTopK(frontier, k, slo, opts, prec, parallelism)
}

// Figure harness -------------------------------------------------------------

// FigureSpec describes one of the paper's validation figures.
type FigureSpec = sweep.FigureSpec

// FigureResult holds a fully evaluated figure.
type FigureResult = sweep.FigureResult

// SweepOptions tunes a figure evaluation.
type SweepOptions = sweep.Options

// Figure returns the specification of paper Figure n (4-7).
func Figure(n int) (FigureSpec, error) { return sweep.PaperFigure(n) }

// RunFigure evaluates a figure: analysis plus simulation per point. Its
// (point × replication) units run on a worker pool bounded by
// SweepOptions.Parallelism, with results bit-identical at every
// parallelism level.
func RunFigure(spec FigureSpec, opts SweepOptions) (*FigureResult, error) {
	res, err := runFigures([]sweep.FigureSpec{spec}, opts)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunFigures evaluates a batch of paper figures (numbers 4-7; an empty
// list means all four), scheduling every figure's simulation units onto
// one shared worker pool — the fastest way to regenerate the whole
// evaluation. The i-th result corresponds to the i-th requested figure.
func RunFigures(ns []int, opts SweepOptions) ([]*FigureResult, error) {
	if len(ns) == 0 {
		ns = []int{4, 5, 6, 7}
	}
	specs := make([]sweep.FigureSpec, len(ns))
	for i, n := range ns {
		spec, err := sweep.PaperFigure(n)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	return runFigures(specs, opts)
}

// runFigures evaluates a figure batch over its own derivation. Figures
// are stationary: a SweepOptions.Scenario is an error.
func runFigures(specs []sweep.FigureSpec, opts SweepOptions) ([]*FigureResult, error) {
	b, err := sweep.FigureBatch(specs, opts)
	if err != nil {
		return nil, err
	}
	return sweep.RunFiguresCtx(context.Background(), b, opts, nil)
}

// DefaultSweepOptions evaluates figures with the paper's per-run procedure
// and 3 replications across all CPUs.
func DefaultSweepOptions() SweepOptions { return sweep.DefaultOptions() }
