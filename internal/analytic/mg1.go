package analytic

import (
	"fmt"
	"math"

	"hmscs/internal/core"
)

// AnalyzeSCV generalises the paper's model from M/M/1 to M/G/1 service
// centres with the given squared coefficient of variation, using the
// Pollaczek–Khinchine formula for per-centre waits. scv=1 reproduces
// Analyze exactly; scv=0 predicts the deterministic-service simulator
// ablation (message transmission on a quiet link takes a fixed time, so
// M/D/1 is arguably the more physical reading).
//
// The effective-rate fixed point is Analyze's, with M/G/1 queue lengths.
// An SCV that is negative, NaN or +Inf (no finite P–K wait) is an error.
func AnalyzeSCV(cfg *core.Config, scv float64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !(scv >= 0) || math.IsInf(scv, 1) {
		return nil, fmt.Errorf("analytic: SCV %g must be finite and non-negative", scv)
	}
	res := &Result{}
	if err := analyze(res, cfg, queueLen{mg1: true, scv: scv}); err != nil {
		return nil, err
	}
	return res, nil
}
