package run

import (
	"context"
	"fmt"

	"hmscs/internal/analytic"
	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/output"
	"hmscs/internal/rng"
	"hmscs/internal/sim"
	"hmscs/internal/sweep"
)

// FigureOutcome is the figure kind's result: every section the
// experiment selected, in the order the renderer prints them.
type FigureOutcome struct {
	// Tables reports whether the static Table 1/2 section was selected.
	Tables bool
	// Nums lists the figure numbers evaluated (requested figures plus the
	// ones a ratio selection pulls in); Results aligns with it. PrintFig
	// marks the ones the selection asked to render.
	Nums     []int
	Results  []*sweep.FigureResult
	PrintFig map[int]bool
	// Ratio reports whether the blocking/non-blocking ratio section was
	// selected (it derives from Results at render time).
	Ratio bool
	// Ablation and Future hold the extra-simulation sections when
	// selected.
	Ablation *AblationData
	Future   *FutureData
	// Prec is the adaptive-stopping target when one was set.
	Prec *output.Precision
}

// AblationData compares the paper's iteration against exact MVA and
// simulation variants on the Figure-4 platform.
type AblationData struct {
	HasSim bool
	Rows   []AblationRow
}

// AblationRow is one cluster count's ablation comparison (seconds).
type AblationRow struct {
	C         int
	OpenModel float64
	MVA       float64
	SimExp    float64
	SimDet    float64
	SimOpen   float64
}

// FutureData evaluates the paper's stated future work on a heterogeneous
// Cluster-of-Clusters platform (seconds).
type FutureData struct {
	OpenModel  float64
	Multiclass float64
	HasSim     bool
	// Adaptive reports precision mode; Reps/Mean/CI describe the
	// simulation estimate either way.
	Adaptive bool
	Reps     int
	Mean     float64
	CI       float64
}

// figureSelection is the figure kind's section selection: want reports
// whether a section key ("fig4", "tables", "ratio", ...) was selected,
// and nums/specs list the figures evaluated — the ones named plus the
// ones a ratio selection pulls in — in order.
type figureSelection struct {
	want  func(key string) bool
	nums  []int
	specs []sweep.FigureSpec
}

func selectFigures(e *Experiment) (*figureSelection, error) {
	selected := splitList(e.Figure.What)
	sel := &figureSelection{want: func(key string) bool {
		for _, s := range selected {
			if s == key || s == "all" {
				return true
			}
		}
		return false
	}}
	for n := 4; n <= 7; n++ {
		if !sel.want(fmt.Sprintf("fig%d", n)) && !sel.want("ratio") {
			continue
		}
		spec, err := sweep.PaperFigure(n)
		if err != nil {
			return nil, err
		}
		sel.nums = append(sel.nums, n)
		sel.specs = append(sel.specs, spec)
	}
	return sel, nil
}

func runFigure(ctx context.Context, p *Program, opts Options, em *emitter) (*FigureOutcome, error) {
	// Every requested figure's (point × replication) units form one
	// stage, so they all share the worker pool.
	st, err := p.Stage(StageFigures)
	if err != nil {
		return nil, err
	}
	sel, sweepOpts := st.figures, st.sweepOpts
	sweepOpts.Parallelism, sweepOpts.Progress = opts.Parallelism, em.fn()
	out := &FigureOutcome{
		Tables:   sel.want("tables"),
		Nums:     sel.nums,
		PrintFig: map[int]bool{},
		Ratio:    sel.want("ratio"),
		Prec:     sweepOpts.Precision,
	}
	for _, n := range sel.nums {
		out.PrintFig[n] = sel.want(fmt.Sprintf("fig%d", n))
	}
	if out.Results, err = sweep.RunFiguresCtx(ctx, opts.observedBatch(st), sweepOpts, opts.unitFunc(st)); err != nil {
		return nil, err
	}
	// The ablation and future-work extras are outside the distributable
	// figures stage (see StageFigures): run them locally.
	extraOpts := sweepOpts
	extraOpts.Sim.Stats = opts.Stats
	if sel.want("ablation") {
		if out.Ablation, err = runAblation(ctx, extraOpts); err != nil {
			return nil, err
		}
	}
	if sel.want("future") {
		if out.Future, err = runFutureWork(ctx, extraOpts); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runAblation compares the paper's effective-rate iteration against exact
// MVA and simulation, quantifying the service-distribution and
// source-blocking assumptions on the Figure-4 platform. Every cluster
// count simulates three variants — exponential service, deterministic
// service and open-loop sources — and all twelve share one batch.
func runAblation(ctx context.Context, opts sweep.Options) (*AblationData, error) {
	data := &AblationData{HasSim: !opts.SkipSimulation}
	detOpts := opts.Sim
	detOpts.ServiceDist = rng.Deterministic{Value: 1}
	openOpts := opts.Sim
	openOpts.OpenLoop = true
	// Open-loop saturation has unbounded queues; cap the run time.
	openOpts.MaxSimTime = 120
	var units []sim.Unit
	for _, c := range []int{2, 8, 32, 128} {
		cfg, err := core.PaperConfig(core.Case1, c, 1024, network.NonBlocking)
		if err != nil {
			return nil, err
		}
		open, err := analytic.Analyze(cfg)
		if err != nil {
			return nil, err
		}
		mva, err := analytic.AnalyzeMVA(cfg)
		if err != nil {
			return nil, err
		}
		data.Rows = append(data.Rows, AblationRow{C: c, OpenModel: open.MeanLatency, MVA: mva.MeanLatency})
		for _, o := range []sim.Options{opts.Sim, detOpts, openOpts} {
			units = append(units, sim.Unit{Cfg: cfg, Opts: o})
		}
	}
	if opts.SkipSimulation {
		return data, nil
	}
	sums, err := sim.RunBatchCtx(ctx, units, sim.Schedule{Reps: opts.Replications}, opts.Parallelism, nil, nil)
	if err != nil {
		return nil, err
	}
	for i := range data.Rows {
		r := &data.Rows[i]
		r.SimExp, r.SimDet, r.SimOpen = sums[3*i].Agg.MeanLatency, sums[3*i+1].Agg.MeanLatency, sums[3*i+2].Agg.MeanLatency
	}
	return data, nil
}

// runFutureWork evaluates the paper's stated future work — heterogeneous
// Cluster-of-Clusters systems — comparing the generalised open model,
// the multiclass closed model, and simulation on an LLNL-style
// conglomerate of four unequal clusters.
func runFutureWork(ctx context.Context, opts sweep.Options) (*FutureData, error) {
	cfg := &core.Config{
		Clusters: []core.Cluster{
			{Nodes: 128, Lambda: 100, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
			{Nodes: 64, Lambda: 150, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
			{Nodes: 48, Lambda: 200, ICN1: network.Myrinet, ECN1: network.FastEthernet},
			{Nodes: 16, Lambda: 400, ICN1: network.FastEthernet, ECN1: network.FastEthernet},
		},
		ICN2:         network.FastEthernet,
		Arch:         network.NonBlocking,
		Switch:       network.PaperSwitch,
		MessageBytes: 1024,
	}
	openModel, err := analytic.Analyze(cfg)
	if err != nil {
		return nil, err
	}
	multi, err := analytic.AnalyzeMulticlass(cfg)
	if err != nil {
		return nil, err
	}
	data := &FutureData{
		OpenModel:  openModel.MeanLatency,
		Multiclass: multi.MeanResponse(),
		HasSim:     !opts.SkipSimulation,
	}
	if !opts.SkipSimulation {
		sched := sim.Schedule{Reps: opts.Replications, Precision: opts.Precision}
		sums, err := sim.RunBatchCtx(ctx, []sim.Unit{{Cfg: cfg, Opts: opts.Sim}}, sched, opts.Parallelism, nil, nil)
		if err != nil {
			return nil, err
		}
		est := sums[0].Est
		data.Adaptive, data.Reps, data.Mean, data.CI = opts.Precision != nil, est.Reps, est.Mean, est.HalfWidth
	}
	return data, nil
}
