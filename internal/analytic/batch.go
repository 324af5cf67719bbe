package analytic

import (
	"context"

	"hmscs/internal/core"
	"hmscs/internal/par"
)

// AnalyzeBatchCtx evaluates the analytical model for every configuration
// on a bounded worker pool — the screening primitive of the capacity
// planner, which asks for thousands of candidate evaluations at
// microseconds each rather than one. arrivalSCV selects the model variant
// exactly as the sweep orchestrator does: a finite SCV ≠ 1 applies the
// Allen–Cunneen G/G/1 arrival correction (AnalyzeArrival), everything
// else (Poisson's SCV 1, NaN, or an infinite-variance heavy tail)
// evaluates the paper's M/M/1 model (Analyze).
//
// Results are written by input index and the returned error is the
// lowest-index failure, so the output is bit-identical at every
// parallelism level (<= 0 uses all CPUs, 1 runs sequentially). A
// cancelled context aborts the pool between candidates and returns
// ctx.Err().
func AnalyzeBatchCtx(ctx context.Context, cfgs []*core.Config, arrivalSCV float64, parallelism int) ([]*Result, error) {
	correct := UsesArrivalCorrection(arrivalSCV)
	out := make([]*Result, len(cfgs))
	err := par.ForEachCtx(ctx, len(cfgs), parallelism, func(i int) error {
		var err error
		if correct {
			out[i], err = AnalyzeArrival(cfgs[i], arrivalSCV)
		} else {
			out[i], err = Analyze(cfgs[i])
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
