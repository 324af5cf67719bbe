package sim

import (
	"context"
	"fmt"
	"sync"

	"hmscs/internal/core"
	"hmscs/internal/output"
	"hmscs/internal/par"
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
	// Prec is the adaptive schedule's full result (nil in fixed mode).
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

// RunBatchCtx runs a batch's replications and summarises each unit. It
// is the one replication driver: a fixed schedule (sched.Precision nil)
// is one scheduling round of sched.Reps replications per unit, an
// adaptive one runs rounds under the sequential stopping rule (see
// runRounds). A unit with a window additionally folds every
// replication's sample series (SampleTimes, Sample) and policy counters
// into one transient accumulator. The fold takes replications in
// replication order as they finish, so only the series that finished
// out of order are held (one at parallelism 1), and the result is
// bit-identical at every parallelism. Dynamic units need the fixed
// schedule: the stopping rule assumes a stationary mean.
//
// parallelism bounds the worker pool (<= 0 all CPUs, 1 sequential). A
// cancelled context aborts the pool between replications and returns
// ctx.Err(); of several failing replications the lowest-index one's
// error is returned. prog (optional) receives the progress events
// runRounds describes; run executes each replication (nil: Run inline).
func RunBatchCtx(ctx context.Context, units []Unit, sched Schedule, parallelism int, prog progress.Func, run UnitFunc) ([]Summary, error) {
	var prec *output.Precision
	var fold *transientFold
	if sched.Precision != nil {
		for _, u := range units {
			if u.window() != nil {
				return nil, fmt.Errorf("sim: precision stopping and a scenario timeline are mutually exclusive (the stopping rule assumes a stationary mean)")
			}
		}
		p := sched.Precision.Normalized()
		if err := p.Validate(); err != nil {
			return nil, err
		}
		prec = &p
	} else {
		var err error
		if fold, err = newTransientFold(units, sched.Confidence); err != nil {
			return nil, err
		}
		if fold != nil {
			run = fold.wrap(run)
		}
		if sched.Reps < 1 {
			return nil, fmt.Errorf("sim: need at least 1 replication, got %d", sched.Reps)
		}
	}
	states, err := runRounds(ctx, units, sched.Reps, prec, parallelism, prog, run)
	if err != nil {
		return nil, err
	}
	out := make([]Summary, len(units))
	for i := range states {
		st := &states[i]
		if prec != nil {
			r := finishPrecision(st, *prec)
			out[i] = Summary{Agg: r.Replicated, Est: r.Estimate, Prec: r}
			continue
		}
		agg := aggregateResults(st.results, nil)
		out[i] = Summary{Agg: agg, Est: Estimate{
			Mean:       agg.MeanLatency,
			Confidence: 0.95,
			HalfWidth:  agg.CI95,
			Reps:       sched.Reps,
			Converged:  true,
		}}
		if fold != nil && fold.units[i] != nil {
			out[i].Transient = fold.units[i].finish()
		}
	}
	return out, nil
}

// unitState is one unit's replication set between scheduling rounds:
// results[rep] (and, on an adaptive schedule, analyses[rep]) fill in as
// replications finish. stopper is the unit's stopping rule, nil on a
// fixed schedule.
type unitState struct {
	stopper  *output.Stopper
	results  []*Result
	analyses []output.RunAnalysis
	done     bool
}

// workItem is one (unit, replication) cell of a scheduling round.
type workItem struct {
	ui, rep int
}

// runRounds runs scheduling rounds on one bounded worker pool until no
// unit wants more replications. Each round's work items are unit-major
// and the pool claims them in index order. Replication rep of unit u
// runs ReplicationOptions(u.Opts, rep, prec != nil), so every result is
// a function of its unit and index alone.
//
// With prec nil the schedule is fixed: one round of reps replications
// per unit (item k is unit k/reps, replication k%reps), and prog
// receives a UnitFinished event per replication from the worker that
// ran it. With prec set (normalized and valid) the schedule is
// adaptive: per round each unconverged unit contributes its stopper's
// next deterministic chunk, every replication's sample is analysed
// (MSER-5) and released, and the stopping rule consumes the estimates
// in replication order, so the set of replications each unit runs is
// the same at every parallelism. Between rounds, in unit order on the
// calling goroutine, prog receives one event per still-running unit
// (replications so far, the running mean and relative CI width):
// UnitEstimate, or UnitFinished once the unit's stopping rule is
// satisfied or exhausted.
func runRounds(ctx context.Context, units []Unit, reps int, prec *output.Precision, parallelism int, prog progress.Func, run UnitFunc) ([]unitState, error) {
	adaptive := prec != nil
	states := make([]unitState, len(units))
	if adaptive {
		for i := range states {
			states[i].stopper = output.NewStopper(*prec)
		}
	}
	// A fixed schedule's one round fills the initial capacity exactly; an
	// adaptive one reuses the slice from round to round.
	items := make([]workItem, 0, len(units)*reps)
	for {
		items = items[:0]
		for ui := range states {
			st := &states[ui]
			if st.done {
				continue
			}
			chunk := reps
			if adaptive {
				chunk = st.stopper.NextChunk()
				st.analyses = append(st.analyses, make([]output.RunAnalysis, chunk)...)
			}
			for k := range chunk {
				items = append(items, workItem{ui: ui, rep: len(st.results) + k})
			}
			st.results = append(st.results, make([]*Result, chunk)...)
		}
		if len(items) == 0 {
			return states, nil
		}
		err := par.ForEachCtx(ctx, len(items), parallelism, func(k int) error {
			it := items[k]
			u, st := units[it.ui], &states[it.ui]
			r, err := run.call(ctx, it.ui, it.rep, u.Cfg, ReplicationOptions(u.Opts, it.rep, adaptive))
			if err != nil {
				return u.wrap(err)
			}
			if adaptive {
				a, err := output.AnalyzeRun(r.Sample, prec.Confidence)
				if err != nil {
					return u.wrap(fmt.Errorf("sim: replication %d analysis: %w", it.rep, err))
				}
				r.Sample = nil // the analysis is done; release the raw series
				st.analyses[it.rep] = a
			} else if prog != nil {
				prog(progress.Event{Kind: progress.UnitFinished, Unit: it.ui, Units: len(units), Rep: it.rep})
			}
			st.results[it.rep] = r
			return nil
		})
		if err != nil {
			return nil, err
		}
		if !adaptive {
			return states, nil
		}
		// Feed the new estimates in replication order and decide.
		for ui := range states {
			st := &states[ui]
			if st.done {
				continue
			}
			for st.stopper.N() < len(st.analyses) {
				st.stopper.Add(st.analyses[st.stopper.N()].Mean)
			}
			st.done = st.stopper.Satisfied() || st.stopper.Exhausted()
			if prog == nil {
				continue
			}
			ev := progress.Event{Kind: progress.UnitEstimate, Unit: ui, Units: len(units), Rep: st.stopper.N(), Mean: st.stopper.Mean()}
			if ev.Mean != 0 {
				ev.RelWidth = st.stopper.HalfWidth() / ev.Mean
			}
			if st.done {
				ev.Kind = progress.UnitFinished
			}
			prog(ev)
		}
	}
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
