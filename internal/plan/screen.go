package plan

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"

	"hmscs/internal/analytic"
	"hmscs/internal/par"
)

// SLO is the service-level objective candidates are screened against.
type SLO struct {
	// MaxLatency is the mean-message-latency budget in seconds (required).
	MaxLatency float64
	// MaxUtil caps the bottleneck centre's utilisation at the analytic
	// fixed point; 0 defaults to 0.95. Saturated candidates (offered
	// ρ >= 1 anywhere) are always infeasible regardless of this cap.
	MaxUtil float64
	// MinNodes is the deployment-size requirement: the smallest total
	// processor count that can host the workload (0 = no requirement).
	// Without it the latency-only frontier degenerates to the smallest
	// machine in the space, since fewer processors generate less traffic.
	MinNodes int
	// MaxRecovery bounds the time-to-return-within-SLO after an injected
	// fault, in seconds (0 = recovery must merely happen inside the
	// scenario horizon). Only read when candidates are verified against a
	// fault timeline (VerifyScenarioCtx).
	MaxRecovery float64
}

// Normalized fills zero fields with defaults.
func (s SLO) Normalized() SLO {
	if s.MaxUtil == 0 {
		s.MaxUtil = 0.95
	}
	return s
}

// Validate reports whether the (normalized) SLO is usable.
func (s SLO) Validate() error {
	if !(s.MaxLatency > 0) || math.IsInf(s.MaxLatency, 1) {
		return fmt.Errorf("plan: SLO latency budget %g must be positive and finite", s.MaxLatency)
	}
	if !(s.MaxUtil > 0) || s.MaxUtil > 1 {
		return fmt.Errorf("plan: SLO utilisation cap %g must be in (0, 1]", s.MaxUtil)
	}
	if s.MinNodes < 0 {
		return fmt.Errorf("plan: SLO minimum node count %d must be non-negative", s.MinNodes)
	}
	if s.MaxRecovery < 0 || math.IsInf(s.MaxRecovery, 0) || math.IsNaN(s.MaxRecovery) {
		return fmt.Errorf("plan: SLO recovery budget %g must be non-negative and finite", s.MaxRecovery)
	}
	return nil
}

// ScreenResult is one candidate's analytic screening outcome. All numeric
// fields are finite for every candidate, feasible or not: a saturated
// configuration reports the model's capped fixed-point latency and
// Feasible=false with a reason, never a NaN or Inf score (the fixed-point
// clamp of analytic.Analyze is what guarantees this — see the knee tests).
type ScreenResult struct {
	Candidate
	// Cost is the CostModel price of the candidate's hardware.
	Cost float64
	// Predicted is the analytic mean message latency (seconds) at the
	// effective-rate fixed point.
	Predicted float64
	// BottleneckName and BottleneckRho identify the highest-utilisation
	// centre at the fixed point.
	BottleneckName string
	BottleneckRho  float64
	// Saturated reports the raw offered rates overload at least one centre.
	Saturated bool
	// Feasible reports the candidate meets the SLO; Reason says why not.
	Feasible bool
	Reason   string
}

// Screen is ScreenCtx without cancellation.
func Screen(sp *Space, slo SLO, cost CostModel, arrivalSCV float64, parallelism int) ([]ScreenResult, error) {
	return ScreenCtx(context.Background(), sp, slo, cost, arrivalSCV, parallelism)
}

// ScreenCtx enumerates the space and, in one worker-pool pass, evaluates
// every candidate through the analytic model (a non-Poisson finite
// arrivalSCV plans with the G/G/1 burstiness correction, see
// analytic.UsesArrivalCorrection), prices it, and scores it against the
// SLO. Results are in enumeration order and bit-identical at every
// parallelism level, the error is the lowest-index candidate's, and a
// cancelled context aborts the pool between candidates and returns
// ctx.Err().
func ScreenCtx(ctx context.Context, sp *Space, slo SLO, cost CostModel, arrivalSCV float64, parallelism int) ([]ScreenResult, error) {
	slo = slo.Normalized()
	if err := slo.Validate(); err != nil {
		return nil, err
	}
	if err := cost.Validate(); err != nil {
		return nil, err
	}
	cands, err := Enumerate(sp)
	if err != nil {
		return nil, err
	}
	return screenCandidates(ctx, cands, slo, cost, arrivalSCV, parallelism)
}

// screenCandidates scores an already-enumerated candidate list, one pool
// unit per candidate writing out[i].
func screenCandidates(ctx context.Context, cands []Candidate, slo SLO, cost CostModel, arrivalSCV float64, parallelism int) ([]ScreenResult, error) {
	out := make([]ScreenResult, len(cands))
	err := par.ForEachCtx(ctx, len(cands), parallelism, func(i int) error {
		an := analyses.Get().(*analytic.Result)
		defer analyses.Put(an)
		var err error
		out[i], err = screenOne(an, cands[i], slo, cost, arrivalSCV)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// analyses recycles analytic Results across screened candidates, so a
// warm pool worker analyses into storage it already owns.
var analyses = sync.Pool{New: func() any { return new(analytic.Result) }}

// screenOne analyses one candidate into an, prices it and scores it.
// Enumerate kept only candidates that validate, so neither the analysis
// nor the pricing validates again; the result keeps nothing of an.
func screenOne(an *analytic.Result, c Candidate, slo SLO, cost CostModel, arrivalSCV float64) (ScreenResult, error) {
	if err := analytic.AnalyzeValidInto(an, c.Cfg, arrivalSCV); err != nil {
		return ScreenResult{}, err
	}
	price, err := cost.cost(c.Cfg)
	if err != nil {
		return ScreenResult{}, fmt.Errorf("plan: candidate %d cost: %w", c.Index, err)
	}
	return score(c, an, price, slo), nil
}

// score judges one analysed, priced candidate against the SLO.
func score(c Candidate, an *analytic.Result, price float64, slo SLO) ScreenResult {
	r := ScreenResult{Candidate: c, Cost: price, Predicted: an.MeanLatency, Saturated: an.Saturated}
	bn := an.Bottleneck()
	r.BottleneckRho = bn.Rho
	r.BottleneckName = bn.Kind.String()
	if bn.Cluster >= 0 {
		r.BottleneckName += "[" + strconv.Itoa(bn.Cluster) + "]"
	}
	switch {
	case c.Cfg.TotalNodes() < slo.MinNodes:
		r.Reason = fmt.Sprintf("only %d of the required %d processors", c.Cfg.TotalNodes(), slo.MinNodes)
	case an.Saturated:
		r.Reason = "saturated (offered load overloads " + r.BottleneckName + ")"
	case r.BottleneckRho > slo.MaxUtil:
		r.Reason = fmt.Sprintf("bottleneck %s ρ=%.3f > %.2f", r.BottleneckName, r.BottleneckRho, slo.MaxUtil)
	case r.Predicted > slo.MaxLatency:
		r.Reason = fmt.Sprintf("predicted %.3f ms > budget %.3f ms", r.Predicted*1e3, slo.MaxLatency*1e3)
	default:
		r.Feasible = true
	}
	return r
}
