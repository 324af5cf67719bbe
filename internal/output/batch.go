package output

import (
	"fmt"
	"math"

	"hmscs/internal/stats"
)

// BatchCI is a batch-means interval estimate of a correlated series' mean.
type BatchCI struct {
	// Batches and BatchSize describe the accepted batching (the last batch
	// absorbs any remainder).
	Batches   int
	BatchSize int
	// Mean is the sample mean and HalfWidth the two-sided confidence
	// half-width at the requested level, from the Student-t interval over
	// the batch means.
	Mean      float64
	HalfWidth float64
	// Correlated reports that even the coarsest batching left significant
	// lag-1 correlation between batch means, so HalfWidth is suspect
	// (the run is too short for its correlation length).
	Correlated bool
}

// maxBatches and minBatches bound the batch-size search: start from many
// short batches (tight t quantile) and coarsen until the batch means pass
// the independence test; below 8 batches the t-interval itself becomes the
// weak link, so the search stops there and flags the estimate instead.
const (
	maxBatches = 64
	minBatches = 8
)

// BatchMeansCI estimates a confidence interval for the mean of a serially
// correlated series by non-overlapping batch means, keeping the largest
// batch count (most t-interval degrees of freedom) whose batches are long
// enough for the series' measured correlation: candidates coarsen from
// maxBatches down, and one is accepted when the lag-1 autocorrelation of
// its batch means is statistically insignificant (one-sided 5% normal
// test — positive correlation is what shrinks intervals dishonestly).
// The search is deterministic in the input.
func BatchMeansCI(sample []float64, confidence float64) (BatchCI, error) {
	if confidence <= 0 || confidence >= 1 {
		return BatchCI{}, fmt.Errorf("output: confidence must be in (0, 1), got %g", confidence)
	}
	if len(sample) < 2*minBatches {
		return BatchCI{}, fmt.Errorf("output: batch means need at least %d observations, got %d", 2*minBatches, len(sample))
	}
	start := maxBatches
	if len(sample)/2 < start {
		start = len(sample) / 2 // at least two observations per batch
	}
	var (
		chosen     []float64
		nb         int
		correlated bool
	)
	for b := start; ; b /= 2 {
		if b < minBatches {
			// Nothing passed: keep the coarsest batching and flag it.
			correlated = true
			break
		}
		means := batchMeans(sample, b)
		r1, err := stats.Autocorrelation(means, 1)
		if err != nil {
			// A constant batch-mean series has no correlation to worry
			// about; accept it.
			chosen, nb = means, b
			break
		}
		// One-sided z test at 5%: under independence r1 is approximately
		// N(0, 1/b).
		if r1 <= 1.645/math.Sqrt(float64(b)) {
			chosen, nb = means, b
			break
		}
		chosen, nb = means, b // remember the coarsest attempt
	}
	// The length guard above ensures start >= minBatches, so the loop
	// always recorded at least one batching before breaking.
	var w stats.Welford
	for _, m := range chosen {
		w.Add(m)
	}
	return BatchCI{
		Batches:    nb,
		BatchSize:  len(sample) / nb,
		Mean:       mean(sample),
		HalfWidth:  w.CI(confidence),
		Correlated: correlated,
	}, nil
}

// batchMeans reduces the series to nb non-overlapping batch means; the
// last batch absorbs the remainder.
func batchMeans(sample []float64, nb int) []float64 {
	per := len(sample) / nb
	out := make([]float64, nb)
	for b := 0; b < nb; b++ {
		start, end := b*per, (b+1)*per
		if b == nb-1 {
			end = len(sample)
		}
		sum := 0.0
		for _, v := range sample[start:end] {
			sum += v
		}
		out[b] = sum / float64(end-start)
	}
	return out
}

func mean(sample []float64) float64 {
	sum := 0.0
	for _, v := range sample {
		sum += v
	}
	return sum / float64(len(sample))
}

// RunAnalysis is the per-replication output analysis: MSER-5 warmup
// deletion followed by batch-means estimation on the retained suffix.
type RunAnalysis struct {
	// Truncated is the number of leading observations MSER-5 deleted.
	Truncated int
	// TruncationOK is false when the MSER minimiser hit its search bound,
	// i.e. the run looks too short to separate transient from steady state.
	TruncationOK bool
	// Mean is the truncated-series mean — the replication's point estimate.
	Mean float64
	// Batch is the within-run batch-means interval on the truncated series.
	Batch BatchCI
	// ESS estimates how many independent observations the truncated series
	// is worth (autocorrelation-discounted sample size).
	ESS float64
}

// AnalyzeRun runs the full single-replication pipeline. Series too short
// for MSER-5 fall back to no truncation rather than failing: a short
// pilot replication still needs a point estimate for the stopping rule to
// react to.
func AnalyzeRun(sample []float64, confidence float64) (RunAnalysis, error) {
	if len(sample) == 0 {
		return RunAnalysis{}, fmt.Errorf("output: empty sample")
	}
	var a RunAnalysis
	if cut, ok, err := MSER5(sample); err == nil {
		a.Truncated, a.TruncationOK = cut, ok
		sample = sample[cut:]
	}
	// A series too short for MSER to run at all keeps TruncationOK false:
	// it is the most truncation-suspect case there is.
	a.Mean = mean(sample)
	if b, err := BatchMeansCI(sample, confidence); err == nil {
		a.Batch = b
	} else {
		a.Batch = BatchCI{Mean: a.Mean, HalfWidth: math.NaN(), Correlated: true}
	}
	if ess, err := stats.EffectiveSampleSize(sample); err == nil {
		a.ESS = ess
	} else {
		a.ESS = float64(len(sample))
	}
	return a, nil
}
