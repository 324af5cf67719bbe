package sim

import (
	"context"
	"fmt"

	"hmscs/internal/output"
	"hmscs/internal/par"
	"hmscs/internal/progress"
)

// Estimate describes the statistical quality of a mean-latency estimate
// (seconds, here): the output-analysis engine's summary, threaded through
// sweep results and the report emitters so variance information survives
// all the way to the CSVs.
type Estimate = output.Estimate

// PrecisionResult is the outcome of a precision-mode run: the usual
// replication aggregate plus the adaptive-stopping bookkeeping.
type PrecisionResult struct {
	*Replicated
	// Estimate is the MSER-truncated across-replication estimate at the
	// requested confidence; its Mean is what the stopping rule tracked
	// (and equals Replicated.MeanLatency).
	Estimate Estimate
	// TotalGenerated counts every message simulated across all
	// replications — the cost that adaptive stopping saves.
	TotalGenerated int64
	// TruncatedFrac is the mean fraction of each replication's sample that
	// MSER-5 deleted as initialisation transient.
	TruncatedFrac float64
	// TruncationSuspect counts replications whose MSER-5 minimiser hit
	// its search bound (or whose series was too short to search at all):
	// their point estimates may retain initialisation bias, a sign the
	// per-replication window should grow (raise -messages).
	TruncationSuspect int
}

// precisionRepMessages sizes a precision-mode replication: a quarter of
// the configured measurement window (floored), so the initial MinReps
// pilot costs about one fixed-mode replication and the stopping rule
// spends the remaining budget only where the variance demands it.
func precisionRepMessages(measured int) int {
	per := measured / 4
	if per < 500 {
		per = 500
	}
	return per
}

// PrecisionReplicationOptions derives replication rep's simulation
// options from a precision unit's base options: the quarter-length
// measurement window, no fixed warm-up (MSER-5 truncation replaces it),
// a recorded sample for the per-replication analysis, and the derived
// seed. It is the precision-mode half of the unit-derivation contract —
// RunPrecisionUnitsCtx applies exactly this transform, and a distributed
// worker re-deriving the unit from the spec must match it bit for bit.
func PrecisionReplicationOptions(base Options, rep int) Options {
	o := base
	if o.MeasuredMessages <= 0 {
		o.MeasuredMessages = DefaultOptions().MeasuredMessages
	}
	o.MeasuredMessages = precisionRepMessages(o.MeasuredMessages)
	o.WarmupMessages = 0
	o.RecordSample = true
	o.Seed = ReplicationSeed(base.Seed, rep)
	return o
}

// unitState tracks one unit's replication set between scheduling rounds.
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

// RunPrecisionUnitsCtx is the adaptive batch driver: it runs every
// unit's replications under the sequential stopping rule, fanning
// (unit × replication) work across one bounded worker pool. Per round,
// each unconverged unit contributes its next deterministic chunk of
// replications; seeds derive from the unit's base seed by
// ReplicationSeed, per-replication analysis depends only on that
// replication's sample, and stopping decisions consume estimates in
// replication order — so results are bit-identical at every parallelism
// level, including the set of replications each unit runs.
//
// Precision mode replaces the fixed warm-up prefix with per-replication
// MSER-5 truncation (Options.WarmupMessages is ignored) and shortens each
// replication to a quarter of Options.MeasuredMessages, extending the
// replication set instead of the run length until the confidence
// half-width on the mean latency is at most prec.RelWidth of the mean.
//
// A cancelled context aborts the pool between replication units and
// returns ctx.Err(); prog (optional) receives, between scheduling rounds
// and in unit order on the calling goroutine, a UnitEstimate event per
// still-running unit (replications so far, the running mean and
// relative CI width) and a UnitFinished event when a unit's stopping
// rule is satisfied or exhausted. run executes each unit (nil: Run
// inline).
func RunPrecisionUnitsCtx(ctx context.Context, units []Unit, prec output.Precision, parallelism int, prog progress.Func, run UnitFunc) ([]*PrecisionResult, error) {
	prec = prec.Normalized()
	if err := prec.Validate(); err != nil {
		return nil, err
	}
	states := make([]*unitState, len(units))
	for i := range states {
		states[i] = &unitState{stopper: output.NewStopper(prec)}
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Collect this round's work: each pending unit's next chunk.
		var items []workItem
		for ui, st := range states {
			if st.done {
				continue
			}
			chunk := st.stopper.NextChunk()
			base := len(st.results)
			for k := 0; k < chunk; k++ {
				items = append(items, workItem{ui: ui, rep: base + k})
			}
			st.results = append(st.results, make([]*Result, chunk)...)
			st.analyses = append(st.analyses, make([]output.RunAnalysis, chunk)...)
		}
		if len(items) == 0 {
			break
		}
		err := par.ForEachCtx(ctx, len(items), parallelism, func(k int) error {
			it := items[k]
			u := units[it.ui]
			o := PrecisionReplicationOptions(u.Opts, it.rep)
			r, err := run.call(ctx, it.ui, it.rep, u.Cfg, o)
			if err != nil {
				return u.wrap(err)
			}
			a, err := output.AnalyzeRun(r.Sample, prec.Confidence)
			if err != nil {
				return u.wrap(fmt.Errorf("sim: replication %d analysis: %w", it.rep, err))
			}
			r.Sample = nil // the analysis is done; release the raw series
			states[it.ui].results[it.rep] = r
			states[it.ui].analyses[it.rep] = a
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Feed the new estimates in replication order and decide.
		for ui, st := range states {
			if st.done {
				continue
			}
			for st.stopper.N() < len(st.analyses) {
				st.stopper.Add(st.analyses[st.stopper.N()].Mean)
			}
			if st.stopper.Satisfied() || st.stopper.Exhausted() {
				st.done = true
			}
			if prog != nil {
				ev := progress.Event{
					Kind:  progress.UnitEstimate,
					Unit:  ui,
					Units: len(units),
					Rep:   st.stopper.N(),
					Mean:  st.stopper.Mean(),
				}
				if m := st.stopper.Mean(); m != 0 {
					ev.RelWidth = st.stopper.HalfWidth() / m
				}
				if st.done {
					ev.Kind = progress.UnitFinished
				}
				prog(ev)
			}
		}
	}
	out := make([]*PrecisionResult, len(units))
	for ui, st := range states {
		out[ui] = finishPrecision(st, prec)
	}
	return out, nil
}

// finishPrecision folds one unit's replication set into its result.
func finishPrecision(st *unitState, prec output.Precision) *PrecisionResult {
	means := make([]float64, len(st.analyses))
	ess, truncFrac := 0.0, 0.0
	suspect := 0
	var totalGen int64
	for i, a := range st.analyses {
		means[i] = a.Mean
		ess += a.ESS
		if n := st.results[i].Measured; n > 0 {
			truncFrac += float64(a.Truncated) / float64(n)
		}
		if !a.TruncationOK {
			suspect++
		}
		totalGen += st.results[i].Generated
	}
	agg := aggregateResults(st.results, means)
	return &PrecisionResult{
		Replicated: agg,
		Estimate: Estimate{
			Mean:       st.stopper.Mean(),
			Confidence: prec.Confidence,
			HalfWidth:  st.stopper.HalfWidth(),
			Reps:       st.stopper.N(),
			ESS:        ess,
			Converged:  st.stopper.Satisfied(),
		},
		TotalGenerated:    totalGen,
		TruncatedFrac:     truncFrac / float64(len(st.analyses)),
		TruncationSuspect: suspect,
	}
}
