package sim

import "hmscs/internal/output"

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
