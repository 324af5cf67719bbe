package stats

import "fmt"

// Autocorrelation returns the lag-k sample autocorrelation of the series.
// Simulation outputs (per-message latencies) are serially correlated;
// output's batch-means search picks its batch count by the lag-1 value
// of this estimator.
func Autocorrelation(sample []float64, lag int) (float64, error) {
	n := len(sample)
	if lag < 0 {
		return 0, fmt.Errorf("stats: negative lag %d", lag)
	}
	if n <= lag+1 {
		return 0, fmt.Errorf("stats: %d observations cannot support lag %d", n, lag)
	}
	mean := 0.0
	for _, x := range sample {
		mean += x
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i < n; i++ {
		d := sample[i] - mean
		den += d * d
		if i+lag < n {
			num += d * (sample[i+lag] - mean)
		}
	}
	if den == 0 {
		return 0, fmt.Errorf("stats: constant series has undefined autocorrelation")
	}
	return num / den, nil
}

// EffectiveSampleSize estimates how many independent observations the
// correlated series is worth, using the initial-positive-sequence
// truncation of the autocorrelation sum (Geyer). It is the honest divisor
// for variance estimates from a single run.
func EffectiveSampleSize(sample []float64) (float64, error) {
	n := len(sample)
	if n < 4 {
		return 0, fmt.Errorf("stats: need at least 4 observations, got %d", n)
	}
	sum := 0.0
	maxLag := n / 4
	for lag := 1; lag <= maxLag; lag++ {
		r, err := Autocorrelation(sample, lag)
		if err != nil {
			return 0, err
		}
		if r <= 0 {
			break
		}
		sum += r
	}
	ess := float64(n) / (1 + 2*sum)
	if ess < 1 {
		ess = 1
	}
	return ess, nil
}
