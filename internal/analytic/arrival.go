package analytic

import (
	"fmt"
	"math"

	"hmscs/internal/core"
)

// AnalyzeArrival generalises the paper's model from Poisson to renewal-ish
// arrivals with the given interarrival squared coefficient of variation,
// using the Allen–Cunneen G/G/1 approximation for per-centre waits: the
// queueing delay of each (exponential-service) centre is the M/M/1 delay
// scaled by (Ca² + 1)/2. arrivalSCV = 1 reproduces Analyze; arrivalSCV > 1
// predicts the latency inflation a bursty arrival process (MMPP, heavy
// tails) causes at equal offered load, which is exactly the model/simulation
// gap the arrival-process subsystem makes measurable (see DESIGN.md §6).
//
// With exponential service the Allen–Cunneen factor (Ca²+1)/2 coincides
// with the Pollaczek–Khinchine factor (1+Cs²)/2, so the evaluation
// delegates to AnalyzeSCV with the roles swapped — one copy of the
// effective-rate fixed point and per-centre scaffold, two readings
// (service-time variability there, arrival variability here). The
// approximation is a first-moment-matching heuristic: for
// infinite-variance processes (Pareto α ≤ 2) the SCV is +Inf and no
// finite correction exists — callers should fall back to Analyze and let
// the simulation show the divergence.
func AnalyzeArrival(cfg *core.Config, arrivalSCV float64) (*Result, error) {
	if err := checkArrivalSCV(arrivalSCV); err != nil {
		return nil, err
	}
	return AnalyzeSCV(cfg, arrivalSCV)
}

// checkArrivalSCV rejects an interarrival SCV with no finite correction.
func checkArrivalSCV(arrivalSCV float64) error {
	if !(arrivalSCV >= 0) || math.IsInf(arrivalSCV, 1) {
		return fmt.Errorf("analytic: arrival SCV %g must be finite and non-negative", arrivalSCV)
	}
	return nil
}

// UsesArrivalCorrection is the single home of the model-selection rule
// AnalyzeInto applies for every caller (sweep, the capacity planner's
// screen, the unified Runner): a finite, non-Poisson interarrival SCV selects the
// Allen–Cunneen G/G/1 correction (AnalyzeArrival); Poisson's SCV 1, NaN,
// and the infinite SCV of heavy tails — which admit no finite correction
// — evaluate the paper's M/M/1 model (Analyze).
func UsesArrivalCorrection(arrivalSCV float64) bool {
	return arrivalSCV != 1 && !math.IsInf(arrivalSCV, 1) && !math.IsNaN(arrivalSCV)
}
