package sim

import (
	"context"

	"hmscs/internal/core"
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

// ReplicationOptions derives replication rep's simulation options from
// a unit's base options: the seed ReplicationSeed(base.Seed, rep) and,
// on an adaptive schedule, the quarter-length measurement window, no
// fixed warm-up (MSER-5 truncation replaces it) and a recorded sample
// for the per-replication analysis. It is the unit-derivation contract:
// RunBatchCtx applies exactly this transform, and a distributed worker
// re-deriving the unit from the spec must match it bit for bit.
func ReplicationOptions(base Options, rep int, adaptive bool) Options {
	o := base
	if adaptive {
		if o.MeasuredMessages <= 0 {
			o.MeasuredMessages = DefaultOptions().MeasuredMessages
		}
		o.MeasuredMessages = precisionRepMessages(o.MeasuredMessages)
		o.WarmupMessages = 0
		o.RecordSample = true
	}
	o.Seed = ReplicationSeed(base.Seed, rep)
	return o
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
// options its replications derive from. Replication rep runs
// ReplicationOptions(Opts, rep, adaptive).
type Unit struct {
	Cfg  *core.Config
	Opts Options
	// Wrap, when non-nil, decorates simulation errors with unit context.
	Wrap func(error) error
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
// replication seed — so the unit's engine (Run for the system simulator)
// on them is the reference implementation; any other implementation (a
// distributed executor re-deriving the unit from its experiment spec)
// must return a bit-identical Result. It is called from worker-pool
// goroutines and must be safe for concurrent use. RunBatchCtx takes one
// as an argument; nil runs Run inline. The driver never reads cfg
// itself, so another engine (the switch-level simulator) reuses its
// schedule, seeds and events through a UnitFunc of its own over units
// with a nil Cfg.
type UnitFunc func(ctx context.Context, point, rep int, cfg *core.Config, opts Options) (*Result, error)

// Run executes one unit through run, or inline through Run when run is
// nil.
func (run UnitFunc) Run(ctx context.Context, point, rep int, cfg *core.Config, opts Options) (*Result, error) {
	if run == nil {
		return Run(cfg, opts)
	}
	return run(ctx, point, rep, cfg, opts)
}
