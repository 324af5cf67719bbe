package plan

import (
	"context"
	"fmt"
	"math"
	"sort"

	"hmscs/internal/output"
	"hmscs/internal/progress"
	"hmscs/internal/scenario"
	"hmscs/internal/sim"
)

// Frontier reduces screening results to the Pareto-efficient feasible set
// on (cost, predicted latency): a candidate survives iff no other feasible
// candidate is at most as expensive AND at most as slow (with at least one
// strict). The frontier is returned cheapest-first; all ties break on
// candidate index, so the result is a pure function of the input order.
func Frontier(results []ScreenResult) []ScreenResult {
	n := 0
	for i := range results {
		if results[i].Feasible {
			n++
		}
	}
	feasible := make([]ScreenResult, 0, n)
	for _, r := range results {
		if r.Feasible {
			feasible = append(feasible, r)
		}
	}
	sort.Slice(feasible, func(i, j int) bool {
		a, b := feasible[i], feasible[j]
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		if a.Predicted != b.Predicted {
			return a.Predicted < b.Predicted
		}
		return a.Index < b.Index
	})
	var out []ScreenResult
	for _, r := range feasible {
		// Sorted by cost then latency: r is dominated iff it is no faster
		// than the best already kept (which is at most as expensive).
		if len(out) > 0 && r.Predicted >= out[len(out)-1].Predicted {
			continue
		}
		out = append(out, r)
	}
	return out
}

// VerifiedCandidate pairs a frontier candidate with its precision-mode
// simulation estimate and the model-vs-simulation gap.
type VerifiedCandidate struct {
	ScreenResult
	// Sim is the precision-mode estimate of the mean message latency.
	Sim sim.Estimate
	// Gap is (Predicted − Sim.Mean) / Sim.Mean: the analytic surrogate's
	// relative error at this design point, signed (positive = the model
	// predicts higher latency than the simulation measures, i.e. the
	// screen was conservative at this point).
	Gap float64
	// SimFeasible reports the simulated mean also meets the SLO budget.
	SimFeasible bool
	// ScenarioChecked reports a fault-timeline verification ran
	// (VerifyScenarioCtx); Recovery is its time-to-return-within-SLO in
	// seconds (NaN when the timeline injects no fault, +Inf when the
	// candidate never recovered inside the horizon) and RecoveryOK whether
	// that meets the SLO's recovery budget.
	ScenarioChecked bool
	Recovery        float64
	RecoveryOK      bool
}

// VerifyTopK simulates the k cheapest frontier candidates to the given
// precision target, fanning (candidate × replication) units over one
// bounded worker pool (sim.RunBatchCtx's adaptive schedule). opts carries the
// workload (arrival process, service distribution, per-replication
// window, base seed); each candidate's replication seeds derive
// deterministically from it, so results are bit-identical at every
// parallelism level.
func VerifyTopK(frontier []ScreenResult, k int, slo SLO, opts sim.Options, prec output.Precision, parallelism int) ([]VerifiedCandidate, error) {
	units := VerifyUnits(frontier, k, opts)
	if len(units) == 0 {
		return nil, nil
	}
	sums, err := sim.RunBatchCtx(context.Background(), units, sim.Schedule{Precision: &prec}, parallelism, nil, nil)
	if err != nil {
		return nil, err
	}
	return Verified(frontier, slo, sums), nil
}

// VerifyUnits is the verification batch of the k cheapest frontier
// candidates (all of them when k exceeds the frontier): one unit per
// candidate, in frontier order, with errors naming the candidate.
func VerifyUnits(frontier []ScreenResult, k int, opts sim.Options) []sim.Unit {
	var units []sim.Unit
	for i := 0; i < k && i < len(frontier); i++ {
		r := frontier[i]
		units = append(units, sim.Unit{Cfg: r.Cfg, Opts: opts, Wrap: func(err error) error {
			return fmt.Errorf("plan: verifying candidate %d (%s): %w", r.Index, r.Label(), err)
		}})
	}
	return units
}

// Verified folds the verification batch's summaries (in VerifyUnits
// order) into verified candidates, judging each simulated mean against
// the SLO.
func Verified(frontier []ScreenResult, slo SLO, sums []sim.Summary) []VerifiedCandidate {
	slo = slo.Normalized()
	out := make([]VerifiedCandidate, len(sums))
	for i, s := range sums {
		v := VerifiedCandidate{ScreenResult: frontier[i], Sim: s.Est}
		if v.Sim.Mean > 0 {
			v.Gap = (v.Predicted - v.Sim.Mean) / v.Sim.Mean
			v.SimFeasible = v.Sim.Mean <= slo.MaxLatency
		}
		out[i] = v
	}
	return out
}

// VerifyScenarioCtx re-runs every verified candidate against a fault
// timeline and fills the Recovery fields in place: the scenario is
// compiled per candidate (cluster:largest resolves against each
// configuration), and all candidates run as the units of one batch, in
// verified order, reps replications each over the fixed horizon; the
// recovery metric comes from each candidate's across-replication
// transient series. The latency objective is the scenario's own SLO
// when set, the plan SLO's budget otherwise; RecoveryOK additionally
// holds the recovery time under slo.MaxRecovery when that is positive.
// Results are bit-identical at every parallelism level.
func VerifyScenarioCtx(ctx context.Context, verified []VerifiedCandidate, scn *scenario.Spec, slo SLO, opts sim.Options, reps, parallelism int, prog progress.Func) error {
	slo = slo.Normalized()
	units := make([]sim.Unit, len(verified))
	for i := range verified {
		v := &verified[i]
		wrap := func(err error) error {
			return fmt.Errorf("plan: scenario check of candidate %d (%s): %w", v.Index, v.Label(), err)
		}
		cs, err := scenario.CompileSim(scn, v.Cfg)
		if err != nil {
			return wrap(err)
		}
		// The latency objective is the timeline's own, else the plan
		// SLO's budget. The timeline is this candidate's own compilation
		// and the engine never reads its SLO, so setting it here changes
		// only the recovery judgement; the horizon and slice width the
		// engine bins by stay the ones the fold slices by.
		if math.IsNaN(cs.SLO) {
			cs.SLO = slo.MaxLatency
		}
		units[i] = sim.Unit{Cfg: v.Cfg, Opts: opts, Wrap: wrap}
		units[i].Opts.Scenario = cs
	}
	sums, err := sim.RunBatchCtx(ctx, units, sim.Schedule{Reps: reps}, parallelism, prog, nil)
	if err != nil {
		return err
	}
	for i := range verified {
		v := &verified[i]
		v.ScenarioChecked = true
		v.Recovery = sums[i].Transient.RecoveryS
		switch {
		case math.IsNaN(v.Recovery):
			// No fault in the timeline: nothing to recover from.
			v.RecoveryOK = true
		case math.IsInf(v.Recovery, 1):
			v.RecoveryOK = false
		default:
			v.RecoveryOK = slo.MaxRecovery == 0 || v.Recovery <= slo.MaxRecovery
		}
	}
	return nil
}
