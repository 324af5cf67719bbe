package run

import (
	"context"
	"fmt"
	"sync"

	"hmscs/internal/core"
	"hmscs/internal/plan"
	"hmscs/internal/scenario"
	"hmscs/internal/sim"
	"hmscs/internal/sweep"
	"hmscs/internal/workload"
)

// The distributable batch stages of an experiment. Each names one batch
// driver invocation inside a runner, so a (stage, point, replication)
// triple addresses exactly one simulation unit of the experiment —
// everything a remote worker needs, together with the spec, to execute
// it bit-identically.
const (
	// StageCheck is the analyze kind's adaptive simulation validation.
	StageCheck = "check"
	// StageSim is the simulate kind's replication batch (all modes).
	StageSim = "sim"
	// StageSweep is the sweep kind's (point × replication) batch.
	StageSweep = "sweep"
	// StageFigures is the figure kind's main figure batch. The ablation
	// and future-work extras run locally: they are a handful of cheap
	// units, and keeping them out of the stage keeps the unit namespace
	// unambiguous.
	StageFigures = "figures"
	// StageVerify is the plan kind's top-K candidate verification. The
	// optional scenario check after it runs locally for the same reason
	// the figure extras do.
	StageVerify = "verify"
)

// UnitStage is one distributable batch of an experiment: the prepared
// per-point units (overrides applied, scenarios compiled)
// plus the replication schedule. In fixed mode every point runs exactly
// Reps replications; with Precision set the schedule is adaptive and rep
// indices are open-ended.
type UnitStage struct {
	Name  string
	Units []sim.Unit
	// Reps is the fixed per-point replication count (0 in precision mode).
	Reps int
	// Precision marks the adaptive schedule: replication rep of a point
	// derives via sim.ReplicationOptions's adaptive transform.
	Precision bool

	// batch is the sweep or figure kind's one derivation (Units are its
	// units), with the options it was derived under and the sweep's
	// point labels or the figure selection: what the runner evaluates and
	// folds results against.
	batch     *sweep.Batch
	sweepOpts sweep.Options
	labels    []string
	figures   *figureSelection
}

// Unit derives one (point, rep) unit's configuration and fully resolved
// simulation options. Stage units never carry execution-side
// attachments (Stats, Profile); `sim.Run(cfg, opts)` on the result is
// the unit's reference semantics.
func (s *UnitStage) Unit(point, rep int) (*core.Config, sim.Options, error) {
	if point < 0 || point >= len(s.Units) {
		return nil, sim.Options{}, fmt.Errorf("run: stage %q has %d points, not %d", s.Name, len(s.Units), point)
	}
	if rep < 0 || (!s.Precision && rep >= s.Reps) {
		return nil, sim.Options{}, fmt.Errorf("run: stage %q runs %d replications, not %d", s.Name, s.Reps, rep)
	}
	u := s.Units[point]
	return u.Cfg, sim.ReplicationOptions(u.Opts, rep, s.Precision), nil
}

// Program is the deterministic unit decomposition of one experiment: the
// single source of its distributable (stage, point, rep) units. run.Run
// builds one per run and its runners execute the stages' units and fold
// the results; a distributed worker builds one from the same normalized
// spec to re-derive a leased unit — so a worker runs exactly the units a
// local run executes.
//
// Stages build lazily and are cached, and so is the plan kind's
// screening pass, which the runner shares with its verify stage — so it
// runs at most once per Program, and only for a party that needs it.
type Program struct {
	spec *Experiment

	mu        sync.Mutex
	stages    map[string]*UnitStage
	screening *screening
}

// screening is the plan kind's screening pass and the inputs it ran on.
type screening struct {
	space    *plan.Space
	slo      plan.SLO
	cost     plan.CostModel
	arrival  workload.Arrival
	screened []plan.ScreenResult
	frontier []plan.ScreenResult
}

// NewProgram returns the experiment's unit decomposition. The spec is
// cloned and normalized; the caller's copy is never touched.
func NewProgram(e *Experiment) (*Program, error) {
	if e == nil {
		return nil, fmt.Errorf("run: nil experiment")
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	spec := e.Clone()
	spec.Normalize()
	return newProgram(spec), nil
}

// newProgram wraps an already validated and normalized spec.
func newProgram(spec *Experiment) *Program {
	return &Program{spec: spec, stages: make(map[string]*UnitStage)}
}

// Distributable reports whether the experiment kind has batch stages a
// remote executor could run. Netsim experiments (their engine drives
// replications itself) and pure-analytic runs do not.
func Distributable(e *Experiment) bool {
	switch e.Kind {
	case KindSimulate, KindSweep, KindFigure, KindPlan:
		return true
	case KindAnalyze:
		prec, err := e.Precision.Build()
		return err == nil && prec != nil
	}
	return false
}

// Stage returns the named stage's decomposition, building it on first
// use. Unknown stage names and stages the spec does not produce (e.g.
// "verify" when plan.top is 0) return an error.
func (p *Program) Stage(name string) (*UnitStage, error) {
	return p.stage(context.TODO(), name, 0)
}

// Unit derives one unit through the named stage. A stage it builds runs
// under ctx, and a plan screening it needs runs on the calling goroutine
// alone: a worker derives units inside a one-slot budget.
func (p *Program) Unit(ctx context.Context, stage string, point, rep int) (*core.Config, sim.Options, error) {
	st, err := p.stage(ctx, stage, 1)
	if err != nil {
		return nil, sim.Options{}, err
	}
	return st.Unit(point, rep)
}

// stage is Stage building under ctx, screening on up to parallelism
// workers when the stage needs the plan kind's screening pass.
func (p *Program) stage(ctx context.Context, name string, parallelism int) (*UnitStage, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.stages[name]; ok {
		return st, nil
	}
	st, err := p.buildStage(ctx, name, parallelism)
	if err != nil {
		return nil, err
	}
	p.stages[name] = st
	return st, nil
}

// screen returns the plan kind's screening pass, running it on first use
// under ctx on up to parallelism workers. Screening is bit-identical at
// every parallelism, so whoever runs it first fixes the frontier for both
// the runner and the verify stage.
func (p *Program) screen(ctx context.Context, parallelism int) (*screening, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.screenLocked(ctx, parallelism)
}

func (p *Program) screenLocked(ctx context.Context, parallelism int) (*screening, error) {
	if p.screening != nil {
		return p.screening, nil
	}
	e := p.spec
	var ps screening
	var err error
	if ps.space, err = e.Plan.BuildSpace(); err != nil {
		return nil, err
	}
	if ps.slo, err = e.Plan.BuildSLO(); err != nil {
		return nil, err
	}
	if ps.cost, err = e.Plan.BuildCost(); err != nil {
		return nil, err
	}
	if ps.arrival, err = e.Workload.BuildArrival(); err != nil {
		return nil, err
	}
	if ps.screened, err = plan.ScreenCtx(ctx, ps.space, ps.slo, ps.cost, ps.arrival.SCV(), parallelism); err != nil {
		return nil, err
	}
	ps.frontier = plan.Frontier(ps.screened)
	p.screening = &ps
	return p.screening, nil
}

func (p *Program) buildStage(ctx context.Context, name string, parallelism int) (*UnitStage, error) {
	e := p.spec
	switch {
	case name == StageCheck && e.Kind == KindAnalyze:
		return p.buildCheck()
	case name == StageSim && e.Kind == KindSimulate:
		return p.buildSim()
	case name == StageSweep && e.Kind == KindSweep,
		name == StageFigures && e.Kind == KindFigure:
		return p.buildBatch(name)
	case name == StageVerify && e.Kind == KindPlan:
		return p.buildVerify(ctx, parallelism)
	}
	return nil, fmt.Errorf("run: %s experiment has no %q stage", e.Kind, name)
}

// buildCheck is the analyze kind's precision validation unit.
func (p *Program) buildCheck() (*UnitStage, error) {
	e := p.spec
	prec, err := e.Precision.Build()
	if err != nil {
		return nil, err
	}
	if prec == nil {
		return nil, fmt.Errorf("run: analyze experiment without a precision target has no %q stage", StageCheck)
	}
	arrival, err := e.Workload.BuildArrival()
	if err != nil {
		return nil, err
	}
	cfg, err := e.System.Build()
	if err != nil {
		return nil, err
	}
	simOpts := sim.DefaultOptions()
	simOpts.Seed = e.Run.Seed
	simOpts.Arrival = arrival
	return &UnitStage{
		Name:      StageCheck,
		Units:     []sim.Unit{{Cfg: cfg, Opts: simOpts}},
		Precision: true,
	}, nil
}

// buildSim is the simulate kind's replication batch for all three modes
// (fixed, scenario, precision): one unit, its timeline compiled in
// scenario mode.
func (p *Program) buildSim() (*UnitStage, error) {
	e := p.spec
	cfg, err := e.System.Build()
	if err != nil {
		return nil, err
	}
	simOpts, err := e.simOptions()
	if err != nil {
		return nil, err
	}
	prec, err := e.Precision.Build()
	if err != nil {
		return nil, err
	}
	st := &UnitStage{Name: StageSim, Units: []sim.Unit{{Cfg: cfg, Opts: simOpts}}}
	switch {
	case prec != nil:
		st.Precision = true
	case e.Scenario != nil:
		cs, err := scenario.CompileSim(e.Scenario, cfg)
		if err != nil {
			return nil, err
		}
		st.Units[0].Opts.Scenario = cs
		st.Units[0].Opts.RecordSample = true
		st.Reps = e.Run.Reps
	default:
		st.Reps = e.Run.Reps
	}
	return st, nil
}

// buildBatch is the sweep or figure kind's point batch: the options,
// points and labels (or figure selection) the runner evaluates and,
// unless analytic-only, one unit per sweep point or figure point, each
// running at least one replication (or the adaptive schedule). Figures
// are stationary: only a sweep threads the scenario timeline.
func (p *Program) buildBatch(name string) (*UnitStage, error) {
	e := p.spec
	simOpts, err := e.simOptions()
	if err != nil {
		return nil, err
	}
	prec, err := e.Precision.Build()
	if err != nil {
		return nil, err
	}
	opts := sweep.Options{Sim: simOpts, Replications: e.Run.Reps, Precision: prec}
	st := &UnitStage{Name: name, Reps: max(opts.Replications, 1)}
	if prec != nil {
		st.Reps, st.Precision = 0, true
	}
	if e.Kind == KindSweep {
		opts.Scenario, opts.SkipSimulation = e.Scenario, e.Sweep.Fast
		var points []sweep.PointSpec
		if st.labels, points, err = buildSweepJobs(e); err != nil {
			return nil, err
		}
		st.batch, err = sweep.PointBatch(points, opts)
	} else {
		opts.SkipSimulation = e.Figure.Fast
		if st.figures, err = selectFigures(e); err != nil {
			return nil, err
		}
		st.batch, err = sweep.FigureBatch(st.figures.specs, opts)
	}
	if err != nil {
		return nil, err
	}
	st.Units, st.sweepOpts = st.batch.Units, opts
	return st, nil
}

// verifyOptions is the simulation setup of the plan kind's verification
// and scenario check.
func (p *Program) verifyOptions(arrival workload.Arrival) sim.Options {
	e := p.spec
	simOpts := sim.DefaultOptions()
	simOpts.Seed = e.Run.Seed
	simOpts.MeasuredMessages = e.Run.Messages
	simOpts.Arrival = arrival
	return simOpts
}

// buildVerify is the plan kind's top-K verification batch over the
// Program's one screening pass, run under ctx on up to parallelism
// workers if nothing has run it yet.
func (p *Program) buildVerify(ctx context.Context, parallelism int) (*UnitStage, error) {
	e := p.spec
	if e.Plan.Top <= 0 {
		return nil, fmt.Errorf("run: plan experiment with top=0 has no %q stage", StageVerify)
	}
	ps, err := p.screenLocked(ctx, parallelism)
	if err != nil {
		return nil, err
	}
	return &UnitStage{
		Name:      StageVerify,
		Units:     plan.VerifyUnits(ps.frontier, e.Plan.Top, p.verifyOptions(ps.arrival)),
		Precision: true,
	}, nil
}
