package run

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hmscs/internal/analytic"
	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/output"
	"hmscs/internal/plan"
	"hmscs/internal/progress"
	"hmscs/internal/queueing"
	"hmscs/internal/scenario"
	"hmscs/internal/sim"
	"hmscs/internal/sweep"
	"hmscs/internal/telemetry"
	"hmscs/internal/trace"
	"hmscs/internal/workload"
)

// Event is the typed progress notification the Runner emits while an
// experiment executes: unit started/finished, replications so far, CI
// width. See internal/progress for the field semantics.
type Event = progress.Event

// Options controls one Run invocation — the execution knobs that are
// deliberately NOT part of the Experiment spec, because they change how
// fast an experiment runs, never what it computes.
type Options struct {
	// Parallelism bounds the worker pools (<= 0 all CPUs, 1 sequential).
	// Results are bit-identical at every value.
	Parallelism int
	// Progress, when non-nil, receives progress events. Run serialises
	// delivery: the callback is never invoked concurrently.
	Progress progress.Func
	// Sinks receive the same serialised event stream plus the final
	// Outcome. Sink errors abort the run.
	Sinks []Sink
	// Stats, when non-nil, additionally receives the run's merged engine
	// statistics — the hook a resident server uses to accumulate
	// process-wide totals across jobs. Every run also gets its own
	// per-run collector regardless, surfaced as Outcome.Telemetry.
	Stats *telemetry.Collector
	// Units, when non-nil, receives each batch stage (see
	// StageCheck..StageVerify) the run is about to execute and returns
	// the executor for its (point × replication) units — how a
	// distributed executor takes them over. A nil return runs that stage
	// locally. Results are bit-identical either way.
	Units func(st *UnitStage) sim.UnitFunc
}

// unitFunc resolves the stage's executor: the Units hook's, else the
// stage's own Engine (nil: sim.Run inline).
func (o Options) unitFunc(st *UnitStage) sim.UnitFunc {
	if o.Units != nil {
		if run := o.Units(st); run != nil {
			return run
		}
	}
	return st.Engine
}

// observed returns the stage's units with the run's stats collector
// attached; the stage itself never carries it.
func (o Options) observed(st *UnitStage) []sim.Unit {
	units := make([]sim.Unit, len(st.Units))
	for i, u := range st.Units {
		u.Opts.Stats = o.Stats
		units[i] = u
	}
	return units
}

// observedBatch is the stage's sweep or figure batch over observed
// units.
func (o Options) observedBatch(st *UnitStage) *sweep.Batch {
	b := *st.batch
	b.Units = o.observed(st)
	return &b
}

// Outcome is the structured result of one experiment: exactly one of
// the kind sections is populated, matching Spec.Kind.
type Outcome struct {
	// Spec is the fully normalized experiment that ran.
	Spec *Experiment
	// Kind repeats Spec.Kind for convenience.
	Kind Kind

	Analyze  *AnalyzeOutcome  `json:"-"`
	Simulate *SimulateOutcome `json:"-"`
	Net      *NetOutcome      `json:"-"`
	Figure   *FigureOutcome   `json:"-"`
	Sweep    *SweepOutcome    `json:"-"`
	Plan     *PlanOutcome     `json:"-"`

	// Telemetry is the run's engine statistics: merged per-replication
	// SimStats, the replication count, and wall time. It never feeds the
	// rendered report or the golden outputs.
	Telemetry *telemetry.RunStats `json:"-"`
}

// AnalyzeOutcome is the analyze kind's result.
type AnalyzeOutcome struct {
	Cfg     *core.Config
	Arrival workload.Arrival
	SCV     float64
	Result  *analytic.Result
	// MVA is the exact cross-check when the spec asked for it.
	MVA *analytic.MVAResult
	// Check is the adaptive simulation validation when a precision target
	// was set; Prec is that target.
	Check *sim.PrecisionResult
	Prec  *output.Precision
}

// SimulateOutcome is the simulate kind's result.
type SimulateOutcome struct {
	Cfg  *core.Config
	Opts sim.Options
	// Agg is the across-replication aggregate (both modes).
	Agg *sim.Replicated
	// PrecRes and Prec are set in adaptive mode.
	PrecRes *sim.PrecisionResult
	Prec    *output.Precision
	// One is the extra replication-1 run behind verbose statistics and
	// journey traces; Trace its recorder when a trace was requested.
	One   *sim.Result
	Trace *trace.Recorder
	// Analytic is the model comparison (nil with NoCompare); ModelLabel
	// names the variant used.
	Analytic   *analytic.Result
	ModelLabel string
	// Scenario is the transient analysis of a dynamic run (nil otherwise).
	Scenario *ScenarioOutcome
}

// NetOutcome is the netsim kind's result.
type NetOutcome struct {
	Exp *NetExperiment
	// Res is the replication behind the topology-level metrics (the first
	// one; the last accepted one in adaptive mode), without its samples.
	Res *sim.Result
	// Est and Prec are set in adaptive mode.
	Est  *sim.Estimate
	Prec *output.Precision
	// ContentionFree is the topology's zero-load reference latency.
	ContentionFree float64
	// ModelServiceTime is the paper's eq. 11/21 service time for this
	// network; ModelSojourn the M/M/1 sojourn at the measured throughput
	// (unstable when ModelUnstable).
	ModelServiceTime float64
	ModelSojourn     float64
	ModelUnstable    bool
	// Scenario is the transient analysis of a dynamic run (nil otherwise).
	Scenario *ScenarioOutcome
}

// SweepOutcome is the sweep kind's result.
type SweepOutcome struct {
	Var     string
	Labels  []string
	Results []sweep.PointResult
	Prec    *output.Precision
	Fast    bool
	// Scenario is the normalized timeline of a dynamic sweep (the
	// per-point transient results ride in Results[i].Dynamic).
	Scenario *scenario.Spec
}

// PlanOutcome is the plan kind's result.
type PlanOutcome struct {
	Space    *plan.Space
	SLO      plan.SLO
	Cost     plan.CostModel
	Arrival  workload.Arrival
	SCV      float64
	Screened int
	Feasible int
	Frontier []plan.ScreenResult
	Verified []plan.VerifiedCandidate
	Prec     *output.Precision
}

// Run executes the experiment under the context: cancellation or a
// deadline aborts mid-batch between replication units on the worker
// pool and returns ctx.Err(). Progress events stream to opts.Progress
// and every sink while units complete; the Outcome is delivered to the
// sinks before Run returns. Results are bit-identical at every
// Options.Parallelism, including the replication counts adaptive modes
// choose.
func Run(ctx context.Context, e *Experiment, opts Options) (*Outcome, error) {
	if e == nil {
		return nil, fmt.Errorf("run: nil experiment")
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	spec := e.Clone() // deep copy: Normalize and config resolution must not touch the caller's spec
	spec.Normalize()
	// A failing sink cancels the run's context so the experiment aborts
	// promptly instead of computing results nobody can consume; the sink
	// error then takes precedence over the resulting ctx.Err().
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	emit := newEmitter(opts, cancel)
	out := &Outcome{Spec: spec, Kind: spec.Kind}
	// Every run gets its own collector so Outcome.Telemetry covers
	// exactly this run; a caller-supplied collector (the server's
	// process-wide one) receives the merged totals afterwards. The
	// runners see the per-run collector through ropts.Stats.
	col := telemetry.NewCollector()
	ropts := opts
	ropts.Stats = col
	start := time.Now()
	prog := newProgram(spec)
	var err error
	switch spec.Kind {
	case KindAnalyze:
		out.Analyze, err = runAnalyze(ctx, prog, ropts, emit)
	case KindSimulate:
		out.Simulate, err = runSimulate(ctx, prog, ropts, emit)
	case KindNetsim:
		out.Net, err = runNetsim(ctx, prog, ropts, emit)
	case KindFigure:
		out.Figure, err = runFigure(ctx, prog, ropts, emit)
	case KindSweep:
		out.Sweep, err = runSweep(ctx, prog, ropts, emit)
	case KindPlan:
		out.Plan, err = runPlan(ctx, prog, ropts, emit)
	}
	sum, reps := col.Snapshot()
	out.Telemetry = &telemetry.RunStats{Sim: sum, Replications: reps, WallSeconds: time.Since(start).Seconds()}
	opts.Stats.Merge(col) // nil-safe
	if serr := emit.err(); serr != nil {
		return nil, serr
	}
	if err != nil {
		return nil, err
	}
	for _, s := range opts.Sinks {
		if err := s.Result(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// emitter serialises progress delivery to the user callback and sinks;
// lower layers may emit from worker goroutines. The first sink failure
// is recorded once and cancels the run.
type emitter struct {
	mu       sync.Mutex
	progress progress.Func
	sinks    []Sink
	sinkErr  error
	cancel   context.CancelFunc
}

func newEmitter(opts Options, cancel context.CancelFunc) *emitter {
	if opts.Progress == nil && len(opts.Sinks) == 0 {
		return nil
	}
	return &emitter{progress: opts.Progress, sinks: opts.Sinks, cancel: cancel}
}

// fn returns the progress.Func lower layers receive (nil when nobody
// listens, so emission costs nothing).
func (em *emitter) fn() progress.Func {
	if em == nil {
		return nil
	}
	return func(ev progress.Event) {
		em.mu.Lock()
		defer em.mu.Unlock()
		if em.progress != nil {
			em.progress(ev)
		}
		if em.sinkErr != nil {
			return // the run is already being cancelled
		}
		for _, s := range em.sinks {
			if err := s.Event(ev); err != nil {
				em.sinkErr = err
				em.cancel()
				return
			}
		}
	}
}

// err reports the first sink failure observed while streaming events.
func (em *emitter) err() error {
	if em == nil {
		return nil
	}
	em.mu.Lock()
	defer em.mu.Unlock()
	return em.sinkErr
}

func runAnalyze(ctx context.Context, p *Program, opts Options, em *emitter) (*AnalyzeOutcome, error) {
	e := p.spec
	prec, err := e.Precision.Build()
	if err != nil {
		return nil, err
	}
	var st *UnitStage
	var cfg *core.Config
	var arrival workload.Arrival
	if prec != nil {
		// The check stage's unit already carries the configuration and
		// arrival process the prediction is made for.
		if st, err = p.Stage(StageCheck); err != nil {
			return nil, err
		}
		cfg, arrival = st.Units[0].Cfg, st.Units[0].Opts.Arrival
	} else {
		if arrival, err = e.Workload.BuildArrival(); err != nil {
			return nil, err
		}
		if cfg, err = e.System.Build(); err != nil {
			return nil, err
		}
	}
	scv := arrival.SCV()
	res := new(analytic.Result)
	if err := analytic.AnalyzeInto(res, cfg, scv); err != nil {
		return nil, err
	}
	out := &AnalyzeOutcome{Cfg: cfg, Arrival: arrival, SCV: scv, Result: res}
	if e.Analyze.MVA {
		if out.MVA, err = analytic.AnalyzeMVA(cfg); err != nil {
			return nil, err
		}
	}
	if prec != nil {
		// Validate the prediction by simulation, adaptively extending the
		// replication set until the estimate is tight enough to judge.
		sums, err := sim.RunBatchCtx(ctx, opts.observed(st), sim.Schedule{Precision: prec}, opts.Parallelism, em.fn(), opts.unitFunc(st))
		if err != nil {
			return nil, err
		}
		out.Check, out.Prec = sums[0].Prec, prec
	}
	return out, nil
}

func runSimulate(ctx context.Context, p *Program, opts Options, em *emitter) (*SimulateOutcome, error) {
	e := p.spec
	st, err := p.Stage(StageSim)
	if err != nil {
		return nil, err
	}
	prec, err := e.Precision.Build()
	if err != nil {
		return nil, err
	}
	units := opts.observed(st)
	cfg, simOpts := units[0].Cfg, units[0].Opts
	sched := sim.Schedule{Reps: st.Reps, Precision: prec, Confidence: e.Precision.Confidence}
	sums, err := sim.RunBatchCtx(ctx, units, sched, opts.Parallelism, em.fn(), opts.unitFunc(st))
	if err != nil {
		return nil, err
	}
	out := &SimulateOutcome{Cfg: cfg, Opts: simOpts, Agg: sums[0].Agg, PrecRes: sums[0].Prec, Prec: prec}
	if t := sums[0].Transient; t != nil {
		out.Scenario = &ScenarioOutcome{Spec: e.Scenario, Transient: t}
	}
	if e.Simulate.Verbose || e.Simulate.TraceOut != "" {
		o := simOpts
		if e.Simulate.TraceOut != "" {
			o.Trace = trace.NewRecorder(0)
		}
		one, err := sim.Run(cfg, o)
		if err != nil {
			return nil, err
		}
		out.One, out.Trace = one, o.Trace
	}
	if !e.Simulate.NoCompare && e.Scenario == nil {
		// With a finite non-Poisson interarrival SCV the model side applies
		// the Allen–Cunneen G/G/1 correction, so the reported error isolates
		// what the correction misses rather than the whole burstiness gap.
		// Dynamic runs skip the comparison: the stationary fixed point does
		// not describe a horizon with injected faults and rate ramps.
		scv := simOpts.Arrival.SCV()
		out.ModelLabel = "analytical latency"
		if analytic.UsesArrivalCorrection(scv) {
			out.ModelLabel = fmt.Sprintf("analytical latency (G/G/1, Ca²=%.3g)", scv)
		}
		out.Analytic = new(analytic.Result)
		if err := analytic.AnalyzeInto(out.Analytic, cfg, scv); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func runNetsim(ctx context.Context, p *Program, opts Options, em *emitter) (*NetOutcome, error) {
	e := p.spec
	st, err := p.Stage(StageNetsim)
	if err != nil {
		return nil, err
	}
	prec, err := e.Precision.Build()
	if err != nil {
		return nil, err
	}
	// Adaptive runs are quarter-length replications with MSER-5 deletion
	// in place of the warm-up prefix.
	sched := sim.Schedule{Reps: st.Reps, Precision: prec, Confidence: e.Precision.Confidence}
	sums, err := sim.RunBatchCtx(ctx, opts.observed(st), sched, opts.Parallelism, em.fn(), opts.unitFunc(st))
	if err != nil {
		return nil, err
	}
	exp, reps := st.net, sums[0].Results
	out := &NetOutcome{Exp: exp, Res: reps[0], Prec: prec, ContentionFree: st.contentionFree}
	if prec != nil {
		out.Est, out.Res = &sums[0].Est, reps[len(reps)-1]
	}
	if t := sums[0].Transient; t != nil {
		out.Scenario = &ScenarioOutcome{Spec: e.Scenario, Transient: t}
	}

	// The single-server abstraction the paper uses for this network, for
	// comparison: an M/M/1 with the eq. 11/21 service time fed by the
	// realised throughput.
	arch := network.NonBlocking
	if exp.Topo == "linear-array" {
		arch = network.Blocking
	}
	model, err := network.NewModel(exp.Tech, arch, exp.Switch, exp.N)
	if err != nil {
		return nil, err
	}
	out.ModelServiceTime = model.MeanServiceTime(exp.MsgBytes)
	mm1, err := queueing.NewMM1(out.Res.Throughput, model.ServiceRate(exp.MsgBytes))
	if err != nil {
		return nil, err
	}
	if w, errW := mm1.W(); errW == nil {
		out.ModelSojourn = w
	} else {
		out.ModelUnstable = true
	}
	return out, nil
}

func runSweep(ctx context.Context, p *Program, opts Options, em *emitter) (*SweepOutcome, error) {
	e := p.spec
	st, err := p.Stage(StageSweep)
	if err != nil {
		return nil, err
	}
	sweepOpts := st.sweepOpts
	sweepOpts.Parallelism, sweepOpts.Progress = opts.Parallelism, em.fn()
	results, err := sweep.RunPointsCtx(ctx, opts.observedBatch(st), sweepOpts, opts.unitFunc(st))
	if err != nil {
		return nil, err
	}
	return &SweepOutcome{
		Var:      e.Sweep.Var,
		Labels:   st.labels,
		Results:  results,
		Prec:     sweepOpts.Precision,
		Fast:     e.Sweep.Fast,
		Scenario: e.Scenario,
	}, nil
}

// systemSweep is a sweep variable that sets one SystemSpec field per
// point: its default value list, whether the list holds integers (the
// sweep's Ints) or reals (its Floats), the field's setter and the point
// label's format.
type systemSweep struct {
	defaults string
	ints     bool
	set      func(s *SystemSpec, v float64)
	label    string
}

var systemSweeps = map[string]systemSweep{
	"clusters": {"1,2,4,8,16,32,64,128,256", true, func(s *SystemSpec, v float64) { s.Clusters = int(v) }, "%.0f"},
	"msg":      {"128,256,512,1024,2048,4096", true, func(s *SystemSpec, v float64) { s.MsgBytes = int(v) }, "%.0fB"},
	"ports":    {"8,16,24,32,48,64", true, func(s *SystemSpec, v float64) { s.Ports = int(v) }, "%.0f ports"},
	"lambda":   {"25,50,100,250,500", false, func(s *SystemSpec, v float64) { s.Lambda = v }, "%g/s"},
}

// values parses the sweep's value list for the variable, or its default.
func (r systemSweep) values(sw *SweepSpec) ([]float64, error) {
	if !r.ints {
		return ParseFloatList(orDefault(sw.Floats, r.defaults))
	}
	ints, err := ParseIntList(orDefault(sw.Ints, r.defaults))
	out := make([]float64, len(ints))
	for i, v := range ints {
		out[i] = float64(v)
	}
	return out, err
}

// buildSweepJobs expands the swept variable into labelled point specs.
func buildSweepJobs(e *Experiment) ([]string, []sweep.PointSpec, error) {
	var labels []string
	var points []sweep.PointSpec
	add := func(label string, p sweep.PointSpec) {
		labels = append(labels, label)
		points = append(points, p)
	}
	sys := e.Sweep
	if row, ok := systemSweeps[sys.Var]; ok {
		if e.System.Config != nil {
			// A configuration fixes every system parameter: a swept value
			// would label identical points.
			return nil, nil, fmt.Errorf("run: cannot sweep %s over a system config, which fixes it (sweep arrival or locality instead)", sys.Var)
		}
		values, err := row.values(sys)
		if err != nil {
			return nil, nil, err
		}
		for _, v := range values {
			s := *e.System
			row.set(&s, v)
			cfg, err := s.Build()
			if err != nil {
				return nil, nil, err
			}
			add(fmt.Sprintf(row.label, v), sweep.PointSpec{Cfg: cfg, Locality: -1})
		}
		return labels, points, nil
	}
	switch sys.Var {
	case "arrival":
		specs := sys.Specs
		if specs == "" {
			specs = "poisson,periodic,mmpp,pareto:1.5,weibull:0.5"
		}
		cfg, err := e.System.Build()
		if err != nil {
			return nil, nil, err
		}
		for _, spec := range splitList(specs) {
			arr, err := ParseArrival(spec, e.Workload.BurstRatio, e.Workload.Trace)
			if err != nil {
				return nil, nil, err
			}
			add(arr.Name(), sweep.PointSpec{Cfg: cfg, Arrival: arr, Locality: -1})
		}
	case "locality":
		values, err := ParseFloatList(orDefault(sys.Floats, "0,0.25,0.5,0.75,0.95"))
		if err != nil {
			return nil, nil, err
		}
		cfg, err := e.System.Build()
		if err != nil {
			return nil, nil, err
		}
		for _, v := range values {
			if v < 0 || v > 1 {
				return nil, nil, fmt.Errorf("run: locality %g out of [0,1]", v)
			}
			add(fmt.Sprintf("%.2f", v), sweep.PointSpec{
				Cfg:      cfg,
				Pattern:  workload.LocalBias{Locality: v},
				Locality: v,
			})
		}
	default:
		return nil, nil, fmt.Errorf("run: unknown sweep variable %q", sys.Var)
	}
	return labels, points, nil
}

func runPlan(ctx context.Context, prog *Program, opts Options, em *emitter) (*PlanOutcome, error) {
	e := prog.spec
	p := e.Plan
	// Normalize already restored the planner's always-adaptive default
	// (±5% @ 95%) for a zero RelWidth, so Build never returns nil here.
	prec, err := e.Precision.Build()
	if err != nil {
		return nil, err
	}
	sc, err := prog.screen(ctx, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	feasible := 0
	for _, r := range sc.screened {
		if r.Feasible {
			feasible++
		}
	}
	frontier := sc.frontier
	out := &PlanOutcome{
		Space:    sc.space,
		SLO:      sc.slo,
		Cost:     sc.cost,
		Arrival:  sc.arrival,
		SCV:      sc.arrival.SCV(),
		Screened: len(sc.screened),
		Feasible: feasible,
		Frontier: frontier,
		Prec:     prec,
	}
	if p.Top > 0 && len(frontier) > 0 {
		st, err := prog.Stage(StageVerify)
		if err != nil {
			return nil, err
		}
		sums, err := sim.RunBatchCtx(ctx, opts.observed(st), sim.Schedule{Precision: prec}, opts.Parallelism, em.fn(), opts.unitFunc(st))
		if err != nil {
			return nil, err
		}
		out.Verified = plan.Verified(frontier, sc.slo, sums)
		if e.Scenario != nil {
			// Dynamic check: every verified candidate additionally rides
			// out the fault timeline, and its recovery time is judged
			// against the SLO's recovery budget. It runs locally — its
			// units are not part of the distributable verify stage.
			scenOpts := prog.verifyOptions(sc.arrival)
			scenOpts.Stats = opts.Stats
			err = plan.VerifyScenarioCtx(ctx, out.Verified, e.Scenario, sc.slo, scenOpts, e.Run.Reps, opts.Parallelism, em.fn())
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
