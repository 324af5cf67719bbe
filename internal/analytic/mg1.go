package analytic

import (
	"fmt"

	"hmscs/internal/core"
	"hmscs/internal/queueing"
)

// AnalyzeSCV generalises the paper's model from M/M/1 to M/G/1 service
// centres with the given squared coefficient of variation, using the
// Pollaczek–Khinchine formula for per-centre waits. scv=1 reproduces
// Analyze exactly; scv=0 predicts the deterministic-service simulator
// ablation (message transmission on a quiet link takes a fixed time, so
// M/D/1 is arguably the more physical reading).
//
// The effective-rate fixed point is Analyze's, with M/G/1 queue lengths.
func AnalyzeSCV(cfg *core.Config, scv float64) (*Result, error) {
	res := &Result{}
	if err := analyzeSCV(res, cfg, scv); err != nil {
		return nil, err
	}
	return res, nil
}

// analyzeSCV is AnalyzeSCV into res.
func analyzeSCV(res *Result, cfg *core.Config, scv float64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if !(scv >= 0) {
		return fmt.Errorf("analytic: SCV %g must be non-negative", scv)
	}
	mg1Station := func(lambda, mu float64) (rho, w, l float64, err error) {
		st, err := queueing.NewMG1(lambda, 1/mu, scv)
		if err != nil {
			return 0, 0, 0, err
		}
		if w, err = st.W(); err != nil {
			return 0, 0, 0, err
		}
		if l, err = st.L(); err != nil {
			return 0, 0, 0, err
		}
		return st.Rho(), w, l, nil
	}
	// Saturated probes clamp to the population as in the M/M/1 variant.
	mg1Len := func(lambda, mu float64) (float64, bool) {
		_, _, l, err := mg1Station(lambda, mu)
		return l, err == nil
	}
	return analyze(res, cfg, mg1Len, mg1Station)
}
