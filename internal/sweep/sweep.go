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
	// Scenario, when non-nil, makes every point of a custom sweep
	// dynamic: the timeline is compiled against each point's own
	// configuration (so symbolic targets like cluster:largest resolve per
	// point) and each point additionally reports a transient series and
	// recovery time. Mutually exclusive with Precision — the stopping
	// rule assumes a stationary mean — and rejected by FigureBatch:
	// figures are stationary.
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

// Batch is a derived figure or sweep batch: the points whose analytic
// side every run evaluates and, unless the batch is analytic-only, one
// simulation unit per point in the same order. A run takes both from
// one Batch, so its points and units are derived once and always agree.
type Batch struct {
	// Figures is a figure batch's layout: one point per (figure, series,
	// cluster count) in that nested order. Nil for a custom sweep.
	Figures []FigureSpec
	Points  []PointSpec
	Units   []sim.Unit
}

// FigureBatch derives a figure batch: every figure's point
// configurations and, unless opts.SkipSimulation, their units with error
// wrapping attached. Figures are stationary, so a scenario timeline in
// opts is an error rather than a faulted-horizon mean in the simulated
// column.
func FigureBatch(specs []FigureSpec, opts Options) (*Batch, error) {
	if opts.Scenario != nil {
		return nil, fmt.Errorf("sweep: figures are stationary; a scenario timeline needs a custom sweep of points")
	}
	n := 0
	for _, spec := range specs {
		n += len(spec.MessageSizes) * len(spec.ClusterCounts)
	}
	b := &Batch{Figures: specs, Points: make([]PointSpec, 0, n)}
	if !opts.SkipSimulation {
		b.Units = make([]sim.Unit, 0, n)
	}
	for _, spec := range specs {
		for _, msg := range spec.MessageSizes {
			for _, c := range spec.ClusterCounts {
				cfg, err := core.PaperConfig(spec.Scenario, c, msg, spec.Arch)
				if err != nil {
					return nil, fmt.Errorf("sweep: %s C=%d: %w", spec.Name, c, err)
				}
				b.Points = append(b.Points, PointSpec{Cfg: cfg, Locality: -1})
				if !opts.SkipSimulation {
					b.Units = append(b.Units, sim.Unit{Cfg: cfg, Opts: opts.Sim, Wrap: func(err error) error {
						return fmt.Errorf("sweep: %s C=%d simulation: %w", spec.Name, c, err)
					}})
				}
			}
		}
	}
	return b, nil
}

// PointBatch derives a custom sweep's batch over points: unless
// opts.SkipSimulation, one unit per point with its workload overrides
// and error wrapping applied and, in a dynamic sweep, opts.Scenario
// compiled against the point's own configuration (so symbolic targets
// like cluster:largest resolve per point) with sample recording on.
func PointBatch(points []PointSpec, opts Options) (*Batch, error) {
	b := &Batch{Points: points}
	if opts.SkipSimulation {
		return b, nil
	}
	b.Units = make([]sim.Unit, len(points))
	for i, p := range points {
		u := sim.Unit{Cfg: p.Cfg, Opts: opts.Sim, Wrap: func(err error) error {
			return fmt.Errorf("sweep: config %d simulation: %w", i, err)
		}}
		if p.Pattern != nil {
			u.Opts.Pattern = p.Pattern
		}
		if p.Arrival != nil {
			u.Opts.Arrival = p.Arrival
		}
		if opts.Scenario != nil {
			cs, err := scenario.CompileSim(opts.Scenario, p.Cfg)
			if err != nil {
				return nil, u.Wrap(err)
			}
			u.Opts.Scenario = cs
		}
		b.Units[i] = u
	}
	return b, nil
}

// RunFiguresCtx evaluates a figure batch: for every (message size,
// cluster count) point the analytical model and, unless skipped, the
// simulator over the batch's units. Every figure's (point × replication)
// units share one bounded worker pool, so a whole-paper regeneration
// saturates the machine instead of crawling figure by figure. run
// executes each (unit, replication) — nil runs sim.Run inline. Results
// are identical to evaluating the figures one at a time; a cancelled
// context aborts the pool between replication units and returns
// ctx.Err().
func RunFiguresCtx(ctx context.Context, b *Batch, opts Options, run sim.UnitFunc) ([]*FigureResult, error) {
	points, err := RunPointsCtx(ctx, b, opts, run)
	if err != nil {
		return nil, err
	}
	arrival := opts.Sim.Arrival
	if arrival == nil {
		arrival = workload.Poisson{}
	}
	out := make([]*FigureResult, len(b.Figures))
	k := 0
	for fi, spec := range b.Figures {
		fr := &FigureResult{Spec: spec, Series: make([]SeriesResult, len(spec.MessageSizes))}
		out[fi] = fr
		for si, msg := range spec.MessageSizes {
			series := &fr.Series[si]
			series.MsgSize = msg
			series.Arrival = arrival.Name()
			series.ArrivalSCV = arrival.SCV()
			for _, c := range spec.ClusterCounts {
				p := points[k]
				k++
				series.Clusters = append(series.Clusters, c)
				series.Analytic = append(series.Analytic, p.Analytic)
				series.Simulated = append(series.Simulated, p.Simulated)
				series.SimCI = append(series.SimCI, p.SimCI)
				series.Stats = append(series.Stats, p.Stat)
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
	Dynamic *sim.Transient
}

// RunPointsCtx evaluates a batch's points analytically and, unless
// skipped, by simulation over the batch's units, returning results in
// point order. It is the building block for the non-figure sweeps (λ,
// Pr, locality...) and for RunFiguresCtx. Simulation units fan out as
// (point × replication) across the Options.Parallelism worker pool under
// sim.RunBatchCtx, the fold every batch shares: opts.Precision selects
// the adaptive schedule, else each point runs opts.Replications (at
// least 1), and a dynamic point also folds its transient series. The
// outputs are bit-identical at every parallelism level; run executes
// each (unit, replication) — nil runs sim.Run inline. A cancelled
// context aborts the pool between replication units and returns
// ctx.Err().
func RunPointsCtx(ctx context.Context, b *Batch, opts Options, run sim.UnitFunc) ([]PointResult, error) {
	out, err := analyzePoints(b.Points, opts.Sim.Arrival)
	if err != nil || opts.SkipSimulation {
		return out, err
	}
	sched := sim.Schedule{Reps: max(opts.Replications, 1), Precision: opts.Precision}
	sums, err := sim.RunBatchCtx(ctx, b.Units, sched, opts.Parallelism, opts.Progress, run)
	if err != nil {
		return nil, err
	}
	for i, s := range sums {
		out[i].Simulated = s.Agg.MeanLatency
		out[i].SimCI = s.Agg.CI95
		out[i].Stat = s.Est
		out[i].Dynamic = s.Transient
	}
	return out, nil
}

// analyzePoints evaluates every point's analytic side in input order,
// under the point's arrival override or else arrival; the simulated
// fields stay zero until RunPointsCtx fills them.
func analyzePoints(points []PointSpec, arrival workload.Arrival) ([]PointResult, error) {
	out := make([]PointResult, len(points))
	reused := new(analytic.Result) // each point keeps only its latency
	for i, p := range points {
		an := reused
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
			err = analytic.AnalyzeInto(an, p.Cfg, scv)
		}
		if err != nil {
			return nil, fmt.Errorf("sweep: config %d analysis: %w", i, err)
		}
		out[i].Analytic = an.MeanLatency
	}
	return out, nil
}
