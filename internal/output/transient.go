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

// SliceCount is the number of slices a window of the given horizon
// splits into at the given slice width: ⌈horizon/width⌉, at least one.
func SliceCount(horizon, width float64) int {
	return max(int(math.Ceil(horizon/width)), 1)
}

// Bins is one replication's completions binned by completion time over
// [0, horizon]: Sums[k] and Counts[k] are the sum and the count of the
// values that completed in slice k. It is the one slice rule of the
// transient estimate; the simulator bins every delivery of a scenario
// run as it happens, and Transient folds the bins.
type Bins struct {
	Sums           []float64
	Counts         []int64
	horizon, width float64
}

// NewBins returns empty bins over [0, horizon] in slices of the given
// width (both positive and finite).
func NewBins(horizon, width float64) Bins {
	n := SliceCount(horizon, width)
	return Bins{Sums: make([]float64, n), Counts: make([]int64, n), horizon: horizon, width: width}
}

// Add bins one completion: value v completed at absolute time t.
// Completions outside [0, horizon] are ignored; one at exactly the
// horizon lands in the last slice. Each slice's sum adds its values in
// the order they are added.
func (b *Bins) Add(t, v float64) {
	if t < 0 || t > b.horizon || math.IsNaN(t) {
		return
	}
	k := min(int(t/b.width), len(b.Sums)-1)
	b.Sums[k] += v
	b.Counts[k]++
}

// Transient accumulates replications into a time-sliced estimate. Feed
// each replication's slice bins with AddReplication, then call Series.
// The estimate depends on the order replications are added, bit for
// bit: each slice's across-replication mean and variance are
// floating-point Welford updates, so a different order can move the last
// digits. Add replications in replication order (sim.RunBatchCtx does)
// for results that are the same at every parallelism.
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
	n := SliceCount(horizon, width)
	return &Transient{
		horizon: horizon, width: width, confidence: confidence,
		across: make([]stats.Welford, n),
		counts: make([]int64, n),
	}, nil
}

// AddReplication folds one replication's slice bins in (Bins.Sums and
// Bins.Counts over the accumulator's window): each slice where the
// replication saw a completion adds its within-replication mean
// sums[k]/counts[k]. Slices without completions contribute nothing (they
// do not drag the mean toward zero). Bins over another slice count are
// an error.
func (tr *Transient) AddReplication(sums []float64, counts []int64) error {
	if n := len(tr.across); len(sums) != n || len(counts) != n {
		return fmt.Errorf("output: replication has %d slice sums and %d counts, want %d of each", len(sums), len(counts), n)
	}
	for k, c := range counts {
		if c > 0 {
			tr.across[k].Add(sums[k] / float64(c))
			tr.counts[k] += c
		}
	}
	return nil
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
