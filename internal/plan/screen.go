package plan

import (
	"context"
	"fmt"
	"math"

	"hmscs/internal/analytic"
	"hmscs/internal/core"
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

// ScreenCtx enumerates the space and evaluates every candidate through
// the analytic model (analytic.AnalyzeBatchCtx, so a non-Poisson finite
// arrivalSCV plans with the G/G/1 burstiness correction), prices it, and
// scores it against the SLO. Results are in enumeration order and
// bit-identical at every parallelism level; a cancelled context aborts
// the screening pool between candidates and returns ctx.Err().
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

// screenCandidates scores an already-enumerated candidate list.
func screenCandidates(ctx context.Context, cands []Candidate, slo SLO, cost CostModel, arrivalSCV float64, parallelism int) ([]ScreenResult, error) {
	cfgs := make([]*core.Config, len(cands))
	for i, c := range cands {
		cfgs[i] = c.Cfg
	}
	analyses, err := analytic.AnalyzeBatchCtx(ctx, cfgs, arrivalSCV, parallelism)
	if err != nil {
		return nil, err
	}
	// Costing rebuilds each candidate's topologies, so it goes on the
	// worker pool too (written by index, lowest-index error — the same
	// determinism contract as the analysis fan-out).
	costs := make([]float64, len(cands))
	err = par.ForEachCtx(ctx, len(cands), parallelism, func(i int) error {
		c, err := cost.Cost(cands[i].Cfg)
		if err != nil {
			return fmt.Errorf("plan: candidate %d cost: %w", cands[i].Index, err)
		}
		costs[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]ScreenResult, len(cands))
	for i, c := range cands {
		an := analyses[i]
		r := ScreenResult{Candidate: c, Predicted: an.MeanLatency, Saturated: an.Saturated}
		bn := an.Bottleneck()
		r.BottleneckRho = bn.Rho
		if bn.Cluster >= 0 {
			r.BottleneckName = fmt.Sprintf("%s[%d]", bn.Kind, bn.Cluster)
		} else {
			r.BottleneckName = bn.Kind.String()
		}
		r.Cost = costs[i]
		switch {
		case c.Cfg.TotalNodes() < slo.MinNodes:
			r.Reason = fmt.Sprintf("only %d of the required %d processors", c.Cfg.TotalNodes(), slo.MinNodes)
		case an.Saturated:
			r.Reason = fmt.Sprintf("saturated (offered load overloads %s)", r.BottleneckName)
		case r.BottleneckRho > slo.MaxUtil:
			r.Reason = fmt.Sprintf("bottleneck %s ρ=%.3f > %.2f", r.BottleneckName, r.BottleneckRho, slo.MaxUtil)
		case r.Predicted > slo.MaxLatency:
			r.Reason = fmt.Sprintf("predicted %.3f ms > budget %.3f ms", r.Predicted*1e3, slo.MaxLatency*1e3)
		default:
			r.Feasible = true
		}
		out[i] = r
	}
	return out, nil
}
