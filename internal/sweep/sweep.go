// Package sweep runs the parameter sweeps behind the paper's evaluation:
// for each point of a figure it evaluates the analytical model and runs the
// simulator, producing the paired series that Figures 4–7 plot (mean
// message latency vs. number of clusters, for two message sizes).
//
// Simulation work is decomposed into (figure point × replication) units
// scheduled onto a bounded worker pool (Options.Parallelism). Every unit's
// seed is derived deterministically from the base seed and its replication
// index — sim.ReplicationSeed — so the results are bit-identical for every
// parallelism level, including fully sequential execution.
package sweep

import (
	"context"
	"fmt"

	"hmscs/internal/analytic"
	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/output"
	"hmscs/internal/progress"
	"hmscs/internal/scenario"
	"hmscs/internal/sim"
	"hmscs/internal/validate"
	"hmscs/internal/workload"
)

// FigureSpec describes one of the paper's validation figures (or a custom
// variant of it).
type FigureSpec struct {
	// Name labels the output, e.g. "Figure 4".
	Name string
	// Scenario is the Table 1 case.
	Scenario core.Scenario
	// Arch selects blocking/non-blocking.
	Arch network.Architecture
	// MessageSizes lists the plotted curves (bytes).
	MessageSizes []int
	// ClusterCounts is the x axis.
	ClusterCounts []int
}

// PaperFigure returns the specification of Figures 4-7.
func PaperFigure(n int) (FigureSpec, error) {
	base := FigureSpec{
		MessageSizes:  append([]int(nil), core.PaperMessageSizes...),
		ClusterCounts: core.PaperClusterCounts(),
	}
	switch n {
	case 4:
		base.Name, base.Scenario, base.Arch = "Figure 4", core.Case1, network.NonBlocking
	case 5:
		base.Name, base.Scenario, base.Arch = "Figure 5", core.Case2, network.NonBlocking
	case 6:
		base.Name, base.Scenario, base.Arch = "Figure 6", core.Case1, network.Blocking
	case 7:
		base.Name, base.Scenario, base.Arch = "Figure 7", core.Case2, network.Blocking
	default:
		return FigureSpec{}, fmt.Errorf("sweep: the paper has figures 4-7, not %d", n)
	}
	return base, nil
}

// Options tunes a sweep run.
type Options struct {
	// Sim carries the per-run simulation options (seed, message counts,
	// service distribution...). Zero values take sim defaults.
	Sim sim.Options
	// Replications per point; at least 1. More replications give CIs.
	Replications int
	// SkipSimulation evaluates only the analytical model (fast mode).
	SkipSimulation bool
	// Parallelism bounds the worker pool that executes the
	// (point × replication) simulation units: <= 0 uses all CPUs, 1 runs
	// sequentially. Results are bit-identical for every value.
	Parallelism int
	// Precision, when non-nil, replaces the fixed Replications count with
	// the sequential stopping rule: every point's replication set extends
	// until the confidence half-width of its mean latency is at most
	// Precision.RelWidth of the mean (see internal/output). Results stay
	// bit-identical at every Parallelism value.
	Precision *output.Precision
	// Progress, when non-nil, receives typed progress events while the
	// simulation units run: per-replication UnitFinished events in fixed
	// mode (from worker goroutines — the callback must be safe for
	// concurrent use) and per-round UnitEstimate/UnitFinished events in
	// precision mode. Events never affect results.
	Progress progress.Func
	// Scenario, when non-nil, makes every point's replications dynamic:
	// the timeline is compiled against each point's own configuration (so
	// symbolic targets like cluster:largest resolve per point) and each
	// point additionally reports a transient series and recovery time.
	// Mutually exclusive with Precision — the stopping rule assumes a
	// stationary mean.
	Scenario *scenario.Spec
}

// DefaultOptions mirrors the paper's procedure with 3 replications, using
// all CPUs.
func DefaultOptions() Options {
	return Options{Sim: sim.DefaultOptions(), Replications: 3}
}

// SeriesResult is one curve of a figure: a message size swept across
// cluster counts.
type SeriesResult struct {
	MsgSize  int
	Clusters []int
	// Arrival names the arrival process the curve's simulations used
	// ("poisson" for the paper's assumption 2) and ArrivalSCV its
	// interarrival squared coefficient of variation — the burstiness
	// summary the report emitters carry alongside the latencies.
	Arrival    string
	ArrivalSCV float64
	// Analytic and Simulated are mean latencies in seconds; SimCI holds
	// the 95% half-widths (zeros when simulation was skipped).
	Analytic  []float64
	Simulated []float64
	SimCI     []float64
	// Stats carries the full per-point estimate quality (replication
	// count, effective sample size, configured-confidence half-width);
	// zero-valued entries when simulation was skipped.
	Stats []sim.Estimate
}

// ValidationSeries converts the curve into a validate.Series.
func (s *SeriesResult) ValidationSeries(name string) *validate.Series {
	out := &validate.Series{Name: name}
	for i := range s.Clusters {
		out.Points = append(out.Points, validate.Point{
			X:         float64(s.Clusters[i]),
			Analytic:  s.Analytic[i],
			Simulated: s.Simulated[i],
			SimCI:     s.SimCI[i],
		})
	}
	return out
}

// FigureResult is a fully evaluated figure.
type FigureResult struct {
	Spec   FigureSpec
	Series []SeriesResult
}

// simulated is one unit's simulation summary: the across-replication
// aggregate, its estimate quality, and — in dynamic batches — the
// transient side.
type simulated struct {
	Agg *sim.Replicated
	Est sim.Estimate
	Dyn *Dynamic
}

// prepareUnits applies the in-place unit transform every batch shares:
// for dynamic batches, per-point scenario compilation with sample
// recording.
func prepareUnits(units []sim.Unit, opts Options) error {
	if opts.Precision != nil && opts.Scenario != nil {
		return fmt.Errorf("sweep: precision stopping and a scenario timeline are mutually exclusive (the stopping rule assumes a stationary mean)")
	}
	if opts.Precision != nil || opts.Scenario == nil {
		return nil
	}
	for i := range units {
		cs, err := scenario.CompileSim(opts.Scenario, units[i].Cfg)
		if err != nil {
			return units[i].Wrap(err)
		}
		units[i].Opts.Scenario = cs
		units[i].Opts.RecordSample = true
	}
	return nil
}

// PointUnits materialises the deterministic unit decomposition of a
// custom sweep: per-point workload overrides applied, scenarios
// compiled, error wrapping attached. Units are in point order;
// an analytic-only batch (opts.SkipSimulation) has none.
func PointUnits(points []PointSpec, opts Options) ([]sim.Unit, error) {
	if opts.SkipSimulation {
		return nil, nil
	}
	units := make([]sim.Unit, len(points))
	for i, p := range points {
		o := opts.Sim
		if p.Pattern != nil {
			o.Pattern = p.Pattern
		}
		if p.Arrival != nil {
			o.Arrival = p.Arrival
		}
		units[i] = sim.Unit{Cfg: p.Cfg, Opts: o, Wrap: func(err error) error {
			return fmt.Errorf("sweep: config %d simulation: %w", i, err)
		}}
	}
	if err := prepareUnits(units, opts); err != nil {
		return nil, err
	}
	return units, nil
}

// figureConfigs builds a figure batch's point configurations, one per
// (figure, series, cluster count) in that nested order — the layout
// FigureUnits and analyzeFigures share.
func figureConfigs(specs []FigureSpec) ([]*core.Config, error) {
	var cfgs []*core.Config
	for _, spec := range specs {
		for _, msg := range spec.MessageSizes {
			for _, c := range spec.ClusterCounts {
				cfg, err := core.PaperConfig(spec.Scenario, c, msg, spec.Arch)
				if err != nil {
					return nil, fmt.Errorf("sweep: %s C=%d: %w", spec.Name, c, err)
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs, nil
}

// FigureUnits materialises the deterministic unit decomposition of a
// figure batch: one unit per (figure, series, cluster count) point in
// that nested order, error wrapping attached. An
// analytic-only batch (opts.SkipSimulation) has none.
func FigureUnits(specs []FigureSpec, opts Options) ([]sim.Unit, error) {
	if opts.SkipSimulation {
		return nil, nil
	}
	cfgs, err := figureConfigs(specs)
	if err != nil {
		return nil, err
	}
	units := make([]sim.Unit, len(cfgs))
	k := 0
	for _, spec := range specs {
		for range spec.MessageSizes {
			for _, c := range spec.ClusterCounts {
				units[k] = sim.Unit{Cfg: cfgs[k], Opts: opts.Sim, Wrap: func(err error) error {
					return fmt.Errorf("sweep: %s C=%d simulation: %w", spec.Name, c, err)
				}}
				k++
			}
		}
	}
	if err := prepareUnits(units, opts); err != nil {
		return nil, err
	}
	return units, nil
}

// simulate executes a prepared batch through sim's drivers and folds
// each unit's replications in replication order: with opts.Precision
// set, the adaptive driver extends every unit's set under the sequential
// stopping rule; otherwise the fixed-grid driver runs opts.Replications
// (at least 1) per unit, and a dynamic batch additionally folds each
// unit's transient series. run executes each (unit, replication) — nil
// runs sim.Run inline. Results are bit-identical at every parallelism
// level and for every run that honours sim.UnitFunc's contract.
func simulate(ctx context.Context, units []sim.Unit, opts Options, run sim.UnitFunc) ([]simulated, error) {
	out := make([]simulated, len(units))
	if opts.Precision != nil {
		res, err := sim.RunPrecisionUnitsCtx(ctx, units, *opts.Precision, opts.Parallelism, opts.Progress, run)
		if err != nil {
			return nil, err
		}
		for i, r := range res {
			out[i] = simulated{Agg: r.Replicated, Est: r.Estimate}
		}
		return out, nil
	}
	reps := max(opts.Replications, 1)
	results, err := sim.RunUnitsCtx(ctx, units, reps, opts.Parallelism, opts.Progress, run)
	if err != nil {
		return nil, err
	}
	for i, rs := range results {
		agg := sim.AggregateResults(rs)
		out[i] = simulated{Agg: agg, Est: sim.Estimate{
			Mean:       agg.MeanLatency,
			Confidence: 0.95,
			HalfWidth:  agg.CI95,
			Reps:       reps,
			Converged:  true,
		}}
		if cs := units[i].Opts.Scenario; cs != nil {
			d, err := NewDynamic(cs, 0.95)
			if err != nil {
				return nil, units[i].Wrap(err)
			}
			for _, r := range rs {
				d.Add(r)
			}
			d.Finish()
			out[i].Dyn = d
		}
	}
	return out, nil
}

// Dynamic is the transient side of one dynamic sweep point: the
// time-sliced latency series over the scenario horizon, the recovery
// metric, and the failure-policy counters summed across replications.
type Dynamic struct {
	// Series is the across-replication time-sliced analysis.
	Series *output.TransientSeries
	// RecoveryS is time-to-return-within-SLO after the first injected
	// fault (seconds; NaN undefined, +Inf never recovered).
	RecoveryS float64
	// Dropped and Rerouted total the messages hit by failure policies.
	Dropped  int64
	Rerouted int64

	tr      *output.Transient
	faultAt float64
	slo     float64
}

// NewDynamic starts the transient accumulation for one compiled point.
func NewDynamic(cs *scenario.CompiledSim, confidence float64) (*Dynamic, error) {
	tr, err := output.NewTransient(cs.Horizon, cs.Slice, confidence)
	if err != nil {
		return nil, err
	}
	return &Dynamic{tr: tr, faultAt: cs.FaultAt, slo: cs.SLO}, nil
}

// Add folds one replication's samples and counters in (call in
// replication order for bit-identical series).
func (d *Dynamic) Add(r *sim.Result) {
	d.tr.AddReplication(r.SampleTimes, r.Sample)
	d.Dropped += r.Dropped
	d.Rerouted += r.Rerouted
}

// Finish materialises the series and the recovery metric.
func (d *Dynamic) Finish() {
	d.Series = d.tr.Series()
	d.RecoveryS = output.RecoveryTime(d.Series, d.faultAt, d.slo)
}

// RunFiguresCtx evaluates a batch of figures: for every (message size,
// cluster count) point the analytical model and, unless skipped, the
// simulator over units, the batch's FigureUnits decomposition. Every
// figure's (point × replication) units share one bounded worker pool, so
// a whole-paper regeneration saturates the machine instead of crawling
// figure by figure. run executes each (unit, replication) — nil runs
// sim.Run inline. Results are identical to evaluating the figures one at
// a time; a cancelled context aborts the pool between replication units
// and returns ctx.Err().
func RunFiguresCtx(ctx context.Context, specs []FigureSpec, units []sim.Unit, opts Options, run sim.UnitFunc) ([]*FigureResult, error) {
	cfgs, err := figureConfigs(specs)
	if err != nil {
		return nil, err
	}
	out, err := analyzeFigures(specs, cfgs, opts.Sim.Arrival)
	if err != nil || opts.SkipSimulation {
		return out, err
	}
	if len(units) != len(cfgs) {
		return nil, fmt.Errorf("sweep: %d units for a %d-point figure batch", len(units), len(cfgs))
	}
	sims, err := simulate(ctx, units, opts, run)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, fr := range out {
		for si := range fr.Series {
			series := &fr.Series[si]
			for pi := range series.Clusters {
				series.Simulated[pi] = sims[k].Agg.MeanLatency
				series.SimCI[pi] = sims[k].Agg.CI95
				series.Stats[pi] = sims[k].Est
				k++
			}
		}
	}
	return out, nil
}

// analyzeFigures lays out a figure batch and evaluates its analytic
// curves on the figureConfigs layout under the arrival process (nil:
// Poisson); the simulated columns stay zero until RunFiguresCtx fills
// them.
func analyzeFigures(specs []FigureSpec, cfgs []*core.Config, arrival workload.Arrival) ([]*FigureResult, error) {
	if arrival == nil {
		arrival = workload.Poisson{}
	}
	out := make([]*FigureResult, len(specs))
	an := new(analytic.Result) // each point keeps only its latency
	k := 0
	for fi, spec := range specs {
		fr := &FigureResult{Spec: spec, Series: make([]SeriesResult, len(spec.MessageSizes))}
		out[fi] = fr
		for si, msg := range spec.MessageSizes {
			series := &fr.Series[si]
			series.MsgSize = msg
			series.Arrival = arrival.Name()
			series.ArrivalSCV = arrival.SCV()
			for _, c := range spec.ClusterCounts {
				err := analytic.AnalyzeInto(an, cfgs[k], arrival.SCV())
				k++
				if err != nil {
					return nil, fmt.Errorf("sweep: %s C=%d analysis: %w", spec.Name, c, err)
				}
				series.Clusters = append(series.Clusters, c)
				series.Analytic = append(series.Analytic, an.MeanLatency)
				series.Simulated = append(series.Simulated, 0)
				series.SimCI = append(series.SimCI, 0)
				series.Stats = append(series.Stats, sim.Estimate{})
			}
		}
	}
	return out, nil
}

// PointSpec is one unit of a custom sweep: a configuration plus optional
// workload overrides for the point.
type PointSpec struct {
	Cfg *core.Config
	// Pattern, when non-nil, overrides Options.Sim.Pattern for this
	// point's simulations.
	Pattern workload.Pattern
	// Arrival, when non-nil, overrides Options.Sim.Arrival for this
	// point's simulations; the analytic side applies the SCV-aware
	// G/G/1 correction (analytic.AnalyzeArrival) when the process's
	// interarrival SCV departs from Poisson and is finite.
	Arrival workload.Arrival
	// Locality >= 0 evaluates the analytical side with AnalyzeLocality
	// (the model generalisation matching workload.LocalBias); negative
	// uses the paper's uniform-destination model.
	Locality float64
}

// PointResult pairs one sweep point's analytical prediction with its
// simulation estimate and the estimate's statistical quality, so variance
// information reaches the emitters instead of being dropped.
type PointResult struct {
	// Analytic and Simulated are mean latencies in seconds (Simulated and
	// Stat are zero when simulation was skipped).
	Analytic  float64
	Simulated float64
	// SimCI is the across-replication 95% half-width on Simulated.
	SimCI float64
	// Stat is the full estimate: replication count, effective sample
	// size, and the half-width at the configured confidence level.
	Stat sim.Estimate
	// Dynamic carries the transient series and recovery metric of a
	// dynamic sweep (nil for stationary sweeps).
	Dynamic *Dynamic
}

// RunPointsCtx evaluates an arbitrary list of sweep points analytically
// and, unless skipped, by simulation over units, the points' PointUnits
// decomposition, returning results in input order. It is the building
// block for the non-figure sweeps (λ, Pr, locality...). Simulation units
// fan out as (point × replication) across the Options.Parallelism worker
// pool with the same deterministic seed derivation as RunFiguresCtx, so
// the outputs are bit-identical at every parallelism level; run executes
// each (unit, replication) — nil runs sim.Run inline. A cancelled context
// aborts the pool between replication units and returns ctx.Err().
func RunPointsCtx(ctx context.Context, points []PointSpec, units []sim.Unit, opts Options, run sim.UnitFunc) ([]PointResult, error) {
	out, err := analyzePoints(points, opts.Sim.Arrival)
	if err != nil || opts.SkipSimulation {
		return out, err
	}
	if len(units) != len(points) {
		return nil, fmt.Errorf("sweep: %d units for %d sweep points", len(units), len(points))
	}
	sims, err := simulate(ctx, units, opts, run)
	if err != nil {
		return nil, err
	}
	for i, s := range sims {
		out[i].Simulated = s.Agg.MeanLatency
		out[i].SimCI = s.Agg.CI95
		out[i].Stat = s.Est
		out[i].Dynamic = s.Dyn
	}
	return out, nil
}

// analyzePoints evaluates every point's analytic side in input order,
// under the point's arrival override or else arrival; the simulated
// fields stay zero until RunPointsCtx fills them.
func analyzePoints(points []PointSpec, arrival workload.Arrival) ([]PointResult, error) {
	out := make([]PointResult, len(points))
	for i, p := range points {
		var an *analytic.Result
		var err error
		if p.Locality >= 0 {
			an, err = analytic.AnalyzeLocality(p.Cfg, p.Locality)
		} else {
			arr, scv := p.Arrival, 1.0
			if arr == nil {
				arr = arrival
			}
			if arr != nil {
				scv = arr.SCV()
			}
			an = new(analytic.Result)
			err = analytic.AnalyzeInto(an, p.Cfg, scv)
		}
		if err != nil {
			return nil, fmt.Errorf("sweep: config %d analysis: %w", i, err)
		}
		out[i].Analytic = an.MeanLatency
	}
	return out, nil
}
