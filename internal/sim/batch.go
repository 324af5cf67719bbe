package sim

import (
	"context"
	"fmt"
	"sync"

	"hmscs/internal/core"
	"hmscs/internal/output"
	"hmscs/internal/progress"
	"hmscs/internal/scenario"
)

// Schedule is a batch's replication plan: with Precision set every unit
// runs under the sequential stopping rule, otherwise exactly Reps
// replications. Confidence is the level of a dynamic unit's transient
// series (0 means 0.95).
type Schedule struct {
	Reps       int
	Precision  *output.Precision
	Confidence float64
}

// Summary is one unit's replication set, folded.
type Summary struct {
	// Agg is the across-replication aggregate and Est its estimate
	// quality (in fixed mode: the 95% replication interval).
	Agg *Replicated
	Est Estimate
	// Prec is the adaptive driver's full result (nil in fixed mode).
	Prec *PrecisionResult
	// Transient is the dynamic side of a unit with a window (nil
	// otherwise).
	Transient *Transient
}

// Transient is a dynamic unit's replication set over its window: the
// time-sliced across-replication latency series, the recovery metric,
// and the failure-policy counters summed across replications.
type Transient struct {
	Series *output.TransientSeries
	// RecoveryS is time-to-return-within-SLO after the first injected
	// fault, in seconds: NaN when the window has no fault or no latency
	// objective, +Inf when the run never recovered inside the horizon.
	RecoveryS float64
	// Dropped and Rerouted total the messages hit by fail-event policies
	// (the switch-level simulator has no reroute, so Rerouted stays 0).
	Dropped  int64
	Rerouted int64
}

// window is the unit's transient window: Window when set, else its
// compiled timeline's, else nil for a stationary unit.
func (u Unit) window() *scenario.Window {
	if u.Window == nil && u.Opts.Scenario != nil {
		return &u.Opts.Scenario.Window
	}
	return u.Window
}

// RunBatchCtx runs a batch's replications and summarises each unit: the
// adaptive driver when sched.Precision is set, else the fixed-grid
// driver with sched.Reps replications per unit. A unit with a window
// additionally folds every replication's sample series (SampleTimes,
// Sample) and policy counters into one transient accumulator. The fold
// takes replications in replication order as they finish, so only the
// series that finished out of order are held (one at parallelism 1),
// and the result is bit-identical at every parallelism. Dynamic units
// need the fixed schedule: the stopping rule assumes a stationary mean.
// parallelism, prog and run are as for RunUnitsCtx.
func RunBatchCtx(ctx context.Context, units []Unit, sched Schedule, parallelism int, prog progress.Func, run UnitFunc) ([]Summary, error) {
	out := make([]Summary, len(units))
	if sched.Precision != nil {
		for _, u := range units {
			if u.window() != nil {
				return nil, fmt.Errorf("sim: precision stopping and a scenario timeline are mutually exclusive (the stopping rule assumes a stationary mean)")
			}
		}
		res, err := RunPrecisionUnitsCtx(ctx, units, *sched.Precision, parallelism, prog, run)
		if err != nil {
			return nil, err
		}
		for i, r := range res {
			out[i] = Summary{Agg: r.Replicated, Est: r.Estimate, Prec: r}
		}
		return out, nil
	}
	f, err := newTransientFold(units, sched.Confidence)
	if err != nil {
		return nil, err
	}
	if f != nil {
		run = f.wrap(run)
	}
	results, err := RunUnitsCtx(ctx, units, sched.Reps, parallelism, prog, run)
	if err != nil {
		return nil, err
	}
	for i, rs := range results {
		agg := aggregateResults(rs, nil)
		out[i] = Summary{Agg: agg, Est: Estimate{
			Mean:       agg.MeanLatency,
			Confidence: 0.95,
			HalfWidth:  agg.CI95,
			Reps:       sched.Reps,
			Converged:  true,
		}}
		if f != nil && f.units[i] != nil {
			out[i].Transient = f.units[i].finish()
		}
	}
	return out, nil
}

// transientFold is a fixed batch's per-unit transient accumulators
// (nil entries for stationary units), fed in replication order.
type transientFold struct {
	mu    sync.Mutex
	units []*unitTransient
}

// unitTransient folds one dynamic unit's replications: next is the
// replication due next, pending those that finished before it.
type unitTransient struct {
	win               scenario.Window
	tr                *output.Transient
	next              int
	pending           map[int]*Result
	dropped, rerouted int64
}

// newTransientFold sizes an accumulator per dynamic unit; it returns nil
// for a batch without one.
func newTransientFold(units []Unit, confidence float64) (*transientFold, error) {
	var f *transientFold
	for i, u := range units {
		w := u.window()
		if w == nil {
			continue
		}
		tr, err := output.NewTransient(w.Horizon, w.Slice, confidence)
		if err != nil {
			return nil, u.wrap(err)
		}
		if f == nil {
			f = &transientFold{units: make([]*unitTransient, len(units))}
		}
		f.units[i] = &unitTransient{win: *w, tr: tr, pending: map[int]*Result{}}
	}
	return f, nil
}

// wrap returns run with every dynamic unit's finished replication folded
// in: the replications now in order are added and their series released.
func (f *transientFold) wrap(run UnitFunc) UnitFunc {
	return func(ctx context.Context, point, rep int, cfg *core.Config, opts Options) (*Result, error) {
		r, err := run.call(ctx, point, rep, cfg, opts)
		if err != nil || f.units[point] == nil {
			return r, err
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		u := f.units[point]
		u.pending[rep] = r
		for p := u.pending[u.next]; p != nil; p = u.pending[u.next] {
			u.tr.AddReplication(p.SampleTimes, p.Sample)
			u.dropped += p.Dropped
			u.rerouted += p.Rerouted
			p.Sample, p.SampleTimes = nil, nil
			delete(u.pending, u.next)
			u.next++
		}
		return r, nil
	}
}

// finish materialises the unit's series and recovery metric.
func (u *unitTransient) finish() *Transient {
	series := u.tr.Series()
	return &Transient{
		Series:    series,
		RecoveryS: output.RecoveryTime(series, u.win.FaultAt, u.win.SLO),
		Dropped:   u.dropped,
		Rerouted:  u.rerouted,
	}
}
