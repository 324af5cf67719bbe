package sim

import (
	"context"
	"fmt"

	"hmscs/internal/core"
	"hmscs/internal/par"
	"hmscs/internal/progress"
	"hmscs/internal/scenario"
	"hmscs/internal/stats"
)

// Replicated aggregates independent simulation replications of one
// configuration: the across-replication distribution of the mean latency is
// the basis for confidence intervals free of within-run autocorrelation.
type Replicated struct {
	// MeanLatency is the grand mean across replications (seconds).
	MeanLatency float64
	// CI95 is the 95% confidence half-width on MeanLatency from the
	// replication means (Student-t).
	CI95 float64
	// PerReplication holds each replication's mean latency.
	PerReplication []float64
	// Throughput is the mean measured throughput (msg/s).
	Throughput float64
	// EffectiveLambda is the mean realised per-processor rate.
	EffectiveLambda float64
	// BottleneckUtilization is the mean utilisation of the busiest centre.
	BottleneckUtilization float64
	// AnyTimedOut reports whether any replication hit MaxSimTime.
	AnyTimedOut bool
}

// ReplicationSeed derives replication i's seed from the base seed. The
// golden-ratio stride keeps the seeds far apart in SplitMix64 space; the
// sweep orchestrator uses the same derivation so that parallel and
// sequential executions of the same experiment draw identical streams.
func ReplicationSeed(base uint64, i int) uint64 {
	return base + uint64(i)*0x9e3779b97f4a7c15
}

// aggregateResults folds per-replication results (in replication order)
// into the across-replication summary, with optional per-replication
// mean overrides (precision mode substitutes MSER-truncated means for
// the raw within-run means). It is deterministic: the output depends
// only on the slice contents and order, never on timing.
func aggregateResults(results []*Result, means []float64) *Replicated {
	n := len(results)
	agg := &Replicated{PerReplication: make([]float64, n)}
	var lat, thru, eff, bottleneck stats.Welford
	for i, r := range results {
		m := r.MeanLatency()
		if means != nil {
			m = means[i]
		}
		agg.PerReplication[i] = m
		lat.Add(m)
		thru.Add(r.Throughput)
		eff.Add(r.EffectiveLambda)
		maxU := 0.0
		for _, c := range r.Centers {
			if c.Utilization > maxU {
				maxU = c.Utilization
			}
		}
		bottleneck.Add(maxU)
		agg.AnyTimedOut = agg.AnyTimedOut || r.TimedOut
	}
	agg.MeanLatency = lat.Mean()
	if n >= 2 {
		agg.CI95 = lat.CI(0.95)
	}
	agg.Throughput = thru.Mean()
	agg.EffectiveLambda = eff.Mean()
	agg.BottleneckUtilization = bottleneck.Mean()
	return agg
}

// Unit is one configuration of a batch: the configuration and the base
// options its replications derive from. Replication rep of a fixed batch
// runs Opts with seed ReplicationSeed(Opts.Seed, rep); an adaptive batch
// derives it through PrecisionReplicationOptions instead.
type Unit struct {
	Cfg  *core.Config
	Opts Options
	// Wrap, when non-nil, decorates simulation errors with unit context.
	Wrap func(error) error
	// Window, when non-nil, is the transient window RunBatchCtx folds
	// the unit's sample series over, in place of its Opts.Scenario's: the
	// window of a timeline an engine other than Run compiled itself, or
	// one judged against another latency objective.
	Window *scenario.Window
}

// wrap applies the unit's error decoration.
func (u Unit) wrap(err error) error {
	if u.Wrap != nil {
		return u.Wrap(err)
	}
	return err
}

// UnitFunc executes one (point × replication) unit of a batch. The cfg
// and opts arguments are fully derived — opts.Seed is already the unit's
// replication seed — so Run(cfg, opts) is the reference implementation;
// any other implementation (a distributed executor re-deriving the unit
// from its experiment spec) must return a bit-identical Result. It is
// called from worker-pool goroutines and must be safe for concurrent
// use. The batch drivers take one as an argument; nil runs Run inline.
// The drivers never read cfg themselves, so an engine other than Run
// (the switch-level simulator) reuses their schedule, seeds and events
// through a UnitFunc of its own over units with a nil Cfg.
type UnitFunc func(ctx context.Context, point, rep int, cfg *core.Config, opts Options) (*Result, error)

// call runs one unit through run, or inline through Run when run is nil.
func (run UnitFunc) call(ctx context.Context, point, rep int, cfg *core.Config, opts Options) (*Result, error) {
	if run == nil {
		return Run(cfg, opts)
	}
	return run(ctx, point, rep, cfg, opts)
}

// RunUnitsCtx is the fixed-grid batch driver: every unit runs exactly
// reps replications, fanned out as (unit × replication) work items on
// one bounded worker pool, and results[u][rep] holds unit u's
// replication rep. Seeds derive by ReplicationSeed, so the results are
// bit-identical at every parallelism level. A cancelled context aborts
// the pool between replications and returns ctx.Err(); prog (optional,
// may be called from worker goroutines) receives a UnitFinished event
// per completed replication; run executes each unit (nil: Run inline).
func RunUnitsCtx(ctx context.Context, units []Unit, reps, parallelism int, prog progress.Func, run UnitFunc) ([][]*Result, error) {
	if reps < 1 {
		return nil, fmt.Errorf("sim: need at least 1 replication, got %d", reps)
	}
	results := make([][]*Result, len(units))
	for i := range results {
		results[i] = make([]*Result, reps)
	}
	err := par.ForEachCtx(ctx, len(units)*reps, parallelism, func(k int) error {
		ui, rep := k/reps, k%reps
		u := units[ui]
		o := u.Opts
		o.Seed = ReplicationSeed(u.Opts.Seed, rep)
		r, err := run.call(ctx, ui, rep, u.Cfg, o)
		if err != nil {
			return u.wrap(err)
		}
		results[ui][rep] = r
		if prog != nil {
			prog(progress.Event{Kind: progress.UnitFinished, Unit: ui, Units: len(units), Rep: rep})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// RunReplicationsCtx executes n independent replications of one
// configuration (seeds derived from opts.Seed by ReplicationSeed) on up
// to parallelism workers (<= 0 all CPUs, 1 sequential) and aggregates
// them; the aggregate is bit-identical for every parallelism value. It
// is RunBatchCtx over a single unit.
func RunReplicationsCtx(ctx context.Context, cfg *core.Config, opts Options, n, parallelism int, prog progress.Func) (*Replicated, error) {
	sums, err := RunBatchCtx(ctx, []Unit{{Cfg: cfg, Opts: opts}}, Schedule{Reps: n}, parallelism, prog, nil)
	if err != nil {
		return nil, err
	}
	return sums[0].Agg, nil
}
