package run

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hmscs/internal/core"
	"hmscs/internal/scenario"
	"hmscs/internal/sim"
)

// recordingExec is an Options.Units executor that pins the
// unit-derivation contract: every (stage, point, rep) a runner executes
// must be in range of an independently built Program's stage and
// re-derive from the spec alone, bit for bit — the property the
// distributed subsystem's correctness rests on. It counts each unit it
// runs.
type recordingExec struct {
	t    *testing.T
	prog *Program

	mu   sync.Mutex
	runs map[string]map[[2]int]int
}

func (r *recordingExec) stage(st *UnitStage) sim.UnitFunc {
	r.mu.Lock()
	if r.runs[st.Name] == nil {
		r.runs[st.Name] = map[[2]int]int{}
	}
	r.mu.Unlock()
	return func(ctx context.Context, point, rep int, cfg *core.Config, opts sim.Options) (*sim.Result, error) {
		r.mu.Lock()
		r.runs[st.Name][[2]int{point, rep}]++
		r.mu.Unlock()
		dst, err := r.prog.StageCtx(context.Background(), st.Name)
		if err != nil {
			r.t.Fatalf("stage %q: %v", st.Name, err)
		}
		dcfg, dopts, err := dst.Unit(point, rep)
		if err != nil {
			r.t.Errorf("stage %q unit (%d,%d): out of range of Program.Stage: %v", st.Name, point, rep, err)
			return st.Engine.Run(ctx, point, rep, cfg, opts)
		}
		if !reflect.DeepEqual(cfg, dcfg) {
			r.t.Errorf("stage %q unit (%d,%d): derived config differs from the runner's", st.Name, point, rep)
		}
		got := opts
		got.Stats = nil
		if !optionsEqual(got, dopts) {
			r.t.Errorf("stage %q unit (%d,%d): derived options differ:\nrunner:  %+v\nderived: %+v", st.Name, point, rep, got, dopts)
		}
		// Execute the derived unit on the derived stage's engine, not the
		// handed-in one: the rendered report then proves the derivation
		// end to end.
		return dst.Engine.Run(ctx, point, rep, dcfg, dopts)
	}
}

// optionsEqual compares simulation options, treating the compiled
// scenario's NaN sentinels (SLO, FaultAt) as equal to themselves.
func optionsEqual(a, b sim.Options) bool {
	sa, sb := a.Scenario, b.Scenario
	a.Scenario, b.Scenario = nil, nil
	if !reflect.DeepEqual(a, b) {
		return false
	}
	if (sa == nil) != (sb == nil) {
		return false
	}
	if sa == nil {
		return true
	}
	ca, cb := *sa, *sb
	if !nanEq(ca.SLO, cb.SLO) || !nanEq(ca.FaultAt, cb.FaultAt) {
		return false
	}
	ca.SLO, ca.FaultAt, cb.SLO, cb.FaultAt = 0, 0, 0, 0
	return reflect.DeepEqual(ca, cb)
}

func nanEq(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// unitTestSpecs covers every distributable stage across every execution
// mode: fixed, precision-adaptive and scenario-dynamic batches.
func unitTestSpecs() map[string]struct {
	e      *Experiment
	stages []string
} {
	analyze := NewExperiment(KindAnalyze)
	analyze.System.Clusters = 2
	analyze.System.Total = 8
	analyze.Run.Messages = 400
	analyze.Precision.RelWidth = 0.5
	analyze.Precision.MaxReps = 4

	simFixed := NewExperiment(KindSimulate)
	simFixed.System.Clusters = 2
	simFixed.System.Total = 8
	simFixed.Run.Messages = 300
	simFixed.Run.Reps = 2

	simPrec := NewExperiment(KindSimulate)
	simPrec.System.Clusters = 2
	simPrec.System.Total = 8
	simPrec.Run.Messages = 400
	simPrec.Precision.RelWidth = 0.5
	simPrec.Precision.MaxReps = 4

	simScen := NewExperiment(KindSimulate)
	simScen.System.Clusters = 2
	simScen.System.Total = 8
	simScen.Run.Messages = 300
	simScen.Run.Reps = 2
	simScen.Scenario = &scenario.Spec{
		HorizonS: 0.05,
		Events: []scenario.Event{
			{TS: 0.02, Action: "fail", Target: "node:0"},
			{TS: 0.03, Action: "repair", Target: "node:0"},
		},
	}

	swp := NewExperiment(KindSweep)
	swp.Sweep.Var = "clusters"
	swp.Sweep.Ints = "1,2"
	swp.Run.Messages = 300
	swp.Run.Reps = 2

	swpScen := NewExperiment(KindSweep)
	swpScen.Sweep.Var = "clusters"
	swpScen.Sweep.Ints = "2"
	swpScen.Run.Messages = 300
	swpScen.Run.Reps = 1
	swpScen.Scenario = &scenario.Spec{
		HorizonS: 0.05,
		Events:   []scenario.Event{{TS: 0.02, Action: "fail", Target: "cluster:largest"}},
	}

	fig := NewExperiment(KindFigure)
	fig.Figure.What = "fig4"
	fig.Figure.Format = "csv"
	fig.Run.Messages = 200
	fig.Run.Reps = 1

	pln := NewExperiment(KindPlan)
	pln.Plan.Top = 1
	pln.Run.Messages = 400
	pln.Precision.RelWidth = 0.5
	pln.Precision.MaxReps = 4

	netFixed := NewExperiment(KindNetsim)
	netFixed.Net.N, netFixed.Net.Ports, netFixed.Net.Tech = 8, 4, "GE"
	netFixed.Net.Lambda = 15000
	netFixed.Run.Messages, netFixed.Run.Warmup = 400, 50

	netPrec := netFixed.Clone()
	netPrec.Precision.RelWidth = 0.5
	netPrec.Precision.MaxReps = 4

	netScen := netFixed.Clone()
	netScen.Run.Reps = 2
	netScen.Scenario = &scenario.Spec{
		HorizonS: 0.01,
		Events: []scenario.Event{
			{TS: 0.003, Action: "fail", Target: "spine:0", Policy: "drop"},
			{TS: 0.006, Action: "repair", Target: "spine:0"},
		},
	}

	return map[string]struct {
		e      *Experiment
		stages []string
	}{
		"netsim-fixed":      {netFixed, []string{StageNetsim}},
		"netsim-prec":       {netPrec, []string{StageNetsim}},
		"netsim-scenario":   {netScen, []string{StageNetsim}},
		"analyze-precision": {analyze, []string{StageCheck}},
		"simulate-fixed":    {simFixed, []string{StageSim}},
		"simulate-prec":     {simPrec, []string{StageSim}},
		"simulate-scenario": {simScen, []string{StageSim}},
		"sweep-fixed":       {swp, []string{StageSweep}},
		"sweep-scenario":    {swpScen, []string{StageSweep}},
		"figure-fig4":       {fig, []string{StageFigures}},
		"plan-top1":         {pln, []string{StageVerify}},
	}
}

// TestProgramDerivationMatchesRunners is the distribution subsystem's
// foundation pin: for every experiment kind and execution mode, each
// unit the runner executes through Options.Units is in range of the
// spec's Program stage and re-derived from the spec bit-identically,
// each unit of a fixed stage runs exactly once, and a run whose units
// all execute through the derived (config, options) renders the same
// report as a plain local run.
func TestProgramDerivationMatchesRunners(t *testing.T) {
	for name, tc := range unitTestSpecs() {
		t.Run(name, func(t *testing.T) {
			var base strings.Builder
			if _, err := Run(context.Background(), tc.e, Options{
				Parallelism: 2,
				Sinks:       []Sink{NewMarkdownSink(&base)},
			}); err != nil {
				t.Fatalf("local run: %v", err)
			}

			prog, err := NewProgram(tc.e)
			if err != nil {
				t.Fatal(err)
			}
			rec := &recordingExec{t: t, prog: prog, runs: map[string]map[[2]int]int{}}
			var viaExec strings.Builder
			_, err = Run(context.Background(), tc.e, Options{
				Parallelism: 2,
				Sinks:       []Sink{NewMarkdownSink(&viaExec)},
				Units:       rec.stage,
			})
			if err != nil {
				t.Fatalf("executor run: %v", err)
			}
			for _, stage := range tc.stages {
				runs, ok := rec.runs[stage]
				if !ok {
					t.Fatalf("stage %q was never handed to the executor", stage)
				}
				if len(runs) == 0 {
					t.Fatalf("stage %q executor ran no units", stage)
				}
				st, err := prog.Stage(stage)
				if err != nil {
					t.Fatal(err)
				}
				for unit, n := range runs {
					if n != 1 {
						t.Errorf("stage %q unit %v ran %d times, want once", stage, unit, n)
					}
				}
				// The adaptive schedule decides its own rep count; a fixed
				// stage must run its whole grid.
				if want := len(st.Units) * st.Reps; !st.Precision && len(runs) != want {
					t.Errorf("stage %q ran %d distinct units, want %d", stage, len(runs), want)
				}
			}
			if viaExec.String() != base.String() {
				t.Errorf("report differs between local and executor runs:\n%s\n---\n%s", base.String(), viaExec.String())
			}
		})
	}
}

// TestUnitStageBounds pins the derivation's index validation.
func TestUnitStageBounds(t *testing.T) {
	e := NewExperiment(KindSimulate)
	e.Run.Reps = 2
	prog, err := NewProgram(e)
	if err != nil {
		t.Fatal(err)
	}
	st, err := prog.Stage(StageSim)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Unit(0, 0); err != nil {
		t.Fatalf("valid unit rejected: %v", err)
	}
	for _, bad := range [][2]int{{1, 0}, {-1, 0}, {0, 2}, {0, -1}} {
		if _, _, err := st.Unit(bad[0], bad[1]); err == nil {
			t.Errorf("unit (%d,%d) accepted, want out-of-range error", bad[0], bad[1])
		}
	}
	if _, err := prog.Stage(StageSweep); err == nil {
		t.Error("simulate experiment produced a sweep stage")
	}
	if Distributable(NewExperiment(KindNetsim)) {
		t.Error("netsim reported distributable")
	}
	if !Distributable(e) {
		t.Error("simulate reported not distributable")
	}
}

// TestPlanScreensOncePerProgram: the plan runner and the verify stage
// share one screening pass — the stage's candidates are the very
// configurations the runner's screen produced, not a second screen's.
func TestPlanScreensOncePerProgram(t *testing.T) {
	e := NewExperiment(KindPlan)
	e.Plan.Top = 2
	prog, err := NewProgram(e)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := prog.screen(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := prog.Stage(StageVerify)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Units) != 2 {
		t.Fatalf("verify stage has %d units, want 2", len(st.Units))
	}
	for i, u := range st.Units {
		if u.Cfg != sc.frontier[i].Cfg {
			t.Fatalf("verify unit %d does not come from the runner's screen", i)
		}
	}
	if again, err := prog.screen(context.Background(), 1); err != nil || again != sc {
		t.Fatalf("second screen call did not reuse the first (err %v)", err)
	}
}

// TestPlanVerifyUnitHonoursContext: a worker deriving a plan verify unit
// screens under its own context. A cancelled context fails the call with
// ctx.Err() and caches neither the screening nor the stage, so a later
// call with a live context screens and succeeds.
func TestPlanVerifyUnitHonoursContext(t *testing.T) {
	e := NewExperiment(KindPlan)
	e.Plan.Top = 2
	prog, err := NewProgram(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prog.StageCtx(ctx, StageVerify); err != ctx.Err() {
		t.Fatalf("cancelled context: err %v, want %v", err, ctx.Err())
	}
	if prog.screening != nil || prog.stages[StageVerify] != nil {
		t.Fatal("a cancelled screening was cached")
	}
	st, err := prog.StageCtx(context.Background(), StageVerify)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := st.Unit(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if prog.screening == nil || cfg != prog.screening.frontier[1].Cfg {
		t.Fatal("verify unit 1 does not come from the cached screening")
	}
}

// TestAnalyzeCheckSharesDerivation: with a precision target, the analyze
// runner predicts for the very configuration its check stage simulates,
// not a second build of the same spec.
func TestAnalyzeCheckSharesDerivation(t *testing.T) {
	e := NewExperiment(KindAnalyze)
	e.System.Clusters, e.System.Total = 4, 32
	e.Run.Messages = 2000
	e.Precision = &PrecisionSpec{RelWidth: 0.5, MaxReps: 4}
	prog, err := NewProgram(e)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runAnalyze(context.Background(), prog, Options{Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := prog.Stage(StageCheck)
	if err != nil {
		t.Fatal(err)
	}
	if out.Check == nil {
		t.Fatal("analyze with a precision target ran no check")
	}
	if out.Cfg != st.Units[0].Cfg {
		t.Fatal("the analytic prediction and the check stage built separate configurations")
	}
}

// TestScenarioResultSizeIndependentOfHorizon: a scenario replication
// bins its latencies as it measures them, so over a four times longer
// horizon, with the slice width scaled alike, its result carries no
// per-sample series, the same number of slice pairs and allocates as
// often. The switch-level stage's units are checked the same way.
func TestScenarioResultSizeIndependentOfHorizon(t *testing.T) {
	for _, c := range []struct{ spec, stage string }{
		{"simulate-scenario.json", StageSim},
		{"netsim-scenario.json", StageNetsim},
	} {
		var allocs []float64
		var slices []int
		for _, scale := range []float64{1, 4} {
			e, err := Load("../../testdata/experiments/" + c.spec)
			if err != nil {
				t.Fatal(err)
			}
			sc := *e.Scenario
			sc.HorizonS *= scale
			sc.SliceS *= scale
			e.Scenario = &sc
			prog, err := NewProgram(e)
			if err != nil {
				t.Fatal(err)
			}
			st, err := prog.Stage(c.stage)
			if err != nil {
				t.Fatal(err)
			}
			cfg, opts, err := st.Unit(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			var res *sim.Result
			allocs = append(allocs, testing.AllocsPerRun(3, func() {
				if res, err = st.Engine.Run(context.Background(), 0, 0, cfg, opts); err != nil {
					t.Fatal(err)
				}
			}))
			if res.Sample != nil || res.Measured == 0 || len(res.SliceSums) != len(res.SliceCounts) {
				t.Fatalf("%s ×%g: %d raw latencies, %d measured, %d slice sums and %d counts; want no sample and a sum per count",
					c.spec, scale, len(res.Sample), res.Measured, len(res.SliceSums), len(res.SliceCounts))
			}
			slices = append(slices, len(res.SliceCounts))
		}
		if slices[0] == 0 || slices[0] != slices[1] {
			t.Errorf("%s: %d slice pairs over the horizon and %d over four times it", c.spec, slices[0], slices[1])
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: %v allocations a replication over the horizon and %v over four times it", c.spec, allocs[0], allocs[1])
		}
	}
}
