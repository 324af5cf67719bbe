package output

import (
	"fmt"
	"math"

	"hmscs/internal/stats"
)

// Transient-phase output analysis: instead of one MSER-truncated
// steady-state mean, a dynamic run is summarised by windowed batch means
// over absolute sim time. The horizon [0, H] splits into fixed-width
// slices; each replication contributes one within-replication mean per
// slice, and the across-replication spread of those per-slice means
// gives an honest Student-t confidence interval per slice — the
// replication-based analogue of batch means, valid in the transient
// regime where the process is not stationary and within-run batching
// would mix different operating points.

// TransientSlice is one time window of a transient estimate.
type TransientSlice struct {
	// T0 and T1 bound the window in seconds of absolute sim time.
	T0 float64 `json:"t0_s"`
	T1 float64 `json:"t1_s"`
	// Mean is the across-replication mean of the per-replication window
	// means (NaN when no replication completed a message in the window).
	Mean float64 `json:"mean_s"`
	// HalfWidth is the Student-t half-width on Mean at the series'
	// confidence level (NaN below 2 contributing replications).
	HalfWidth float64 `json:"half_width_s"`
	// Reps is the number of replications that contributed to the window,
	// Count the total completions across them.
	Reps  int   `json:"reps"`
	Count int64 `json:"count"`
}

// TransientSeries is a complete time-sliced estimate.
type TransientSeries struct {
	// Width is the slice width in seconds, Confidence the CI level.
	Width      float64          `json:"width_s"`
	Confidence float64          `json:"confidence"`
	Slices     []TransientSlice `json:"slices"`
}

// Transient accumulates replications into a time-sliced estimate. Feed
// each replication's (completion time, latency) series with
// AddReplication, then call Series. The estimate depends on the order
// replications are added, bit for bit: each slice's across-replication
// mean and variance are floating-point Welford updates, so a different
// order can move the last digits. Add replications in replication order
// (sim.RunBatchCtx does) for results that are the same at every
// parallelism.
type Transient struct {
	horizon, width float64
	confidence     float64
	across         []stats.Welford
	counts         []int64
}

// NewTransient builds an accumulator over [0, horizon] with the given
// slice width and confidence level (0 defaults to 0.95).
func NewTransient(horizon, width, confidence float64) (*Transient, error) {
	if !(horizon > 0) || math.IsInf(horizon, 0) {
		return nil, fmt.Errorf("output: transient horizon must be positive and finite, got %g", horizon)
	}
	if !(width > 0) || math.IsInf(width, 0) {
		return nil, fmt.Errorf("output: transient slice width must be positive and finite, got %g", width)
	}
	if confidence == 0 {
		confidence = 0.95
	}
	if confidence <= 0 || confidence >= 1 {
		return nil, fmt.Errorf("output: confidence must be in (0, 1), got %g", confidence)
	}
	n := int(math.Ceil(horizon / width))
	if n < 1 {
		n = 1
	}
	return &Transient{
		horizon: horizon, width: width, confidence: confidence,
		across: make([]stats.Welford, n),
		counts: make([]int64, n),
	}, nil
}

// AddReplication folds one replication's completion series in: times[i]
// is the absolute sim time of completion i, values[i] its latency.
// Samples outside [0, horizon] are ignored; a sample at exactly the
// horizon lands in the last slice. Slices where the replication saw no
// completion contribute nothing (they do not drag the mean toward zero).
func (tr *Transient) AddReplication(times, values []float64) {
	n := len(tr.across)
	sums := make([]float64, n)
	cnts := make([]int64, n)
	for i, t := range times {
		if t < 0 || t > tr.horizon || math.IsNaN(t) {
			continue
		}
		k := int(t / tr.width)
		if k >= n {
			k = n - 1
		}
		sums[k] += values[i]
		cnts[k]++
	}
	for k := 0; k < n; k++ {
		if cnts[k] > 0 {
			tr.across[k].Add(sums[k] / float64(cnts[k]))
			tr.counts[k] += cnts[k]
		}
	}
}

// Series returns the accumulated time-sliced estimate.
func (tr *Transient) Series() *TransientSeries {
	out := &TransientSeries{Width: tr.width, Confidence: tr.confidence}
	for k := range tr.across {
		t1 := float64(k+1) * tr.width
		if t1 > tr.horizon {
			t1 = tr.horizon
		}
		s := TransientSlice{
			T0:    float64(k) * tr.width,
			T1:    t1,
			Mean:  math.NaN(),
			Reps:  int(tr.across[k].Count()),
			Count: tr.counts[k],
		}
		if s.Reps > 0 {
			s.Mean = tr.across[k].Mean()
		}
		s.HalfWidth = tr.across[k].CI(tr.confidence)
		out.Slices = append(out.Slices, s)
	}
	return out
}

// RecoveryTime returns the time from the injected fault to the start of
// the first slice from which the mean latency is back within the SLO and
// stays there through the horizon. Slices without completions after the
// fault do not count as recovered — a dead system produces no latencies
// at all, which is the opposite of meeting an SLO. Returns +Inf when the
// system never recovers inside the horizon, and NaN when faultAt or slo
// is NaN (no fault injected, or no SLO configured).
func RecoveryTime(series *TransientSeries, faultAt, slo float64) float64 {
	if math.IsNaN(faultAt) || math.IsNaN(slo) || series == nil {
		return math.NaN()
	}
	recoveredFrom := math.Inf(1)
	for _, s := range series.Slices {
		if s.T1 <= faultAt {
			continue
		}
		ok := s.Reps > 0 && s.Mean <= slo
		if ok && math.IsInf(recoveredFrom, 1) {
			recoveredFrom = math.Max(s.T0, faultAt)
		} else if !ok {
			recoveredFrom = math.Inf(1)
		}
	}
	if math.IsInf(recoveredFrom, 1) {
		return recoveredFrom
	}
	return recoveredFrom - faultAt
}
