// Package stats provides the statistical accumulators and estimators used
// by the simulator, output analysis and the validation harness: streaming
// moments (Welford), time-weighted averages for queue lengths and
// utilisations, normal and Student-t quantiles, autocorrelation and
// effective sample size, and relative error.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
)

// Welford accumulates count, mean and variance of a sample in a single
// numerically stable pass. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Merge combines another accumulator into this one (parallel reduction),
// using Chan et al.'s pairwise update.
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.mean += delta * float64(o.n) / float64(n)
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// Count returns the number of observations.
func (w *Welford) Count() int64 { return w.n }

// WelfordState is a Welford accumulator's exact internal state, exposed
// for serialisation and as the accumulator's JSON form: a distributed
// worker ships its per-replication accumulators over the wire and the
// coordinator restores them bit for bit (Go's JSON float64 round-trip is
// exact), so merged results are byte-identical to a local run.
type WelfordState struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// State captures the accumulator's internal state for serialisation.
func (w *Welford) State() WelfordState {
	return WelfordState{N: w.n, Mean: w.mean, M2: w.m2, Min: w.min, Max: w.max}
}

// RestoreWelford reconstructs an accumulator from a captured state.
func RestoreWelford(s WelfordState) Welford {
	return Welford{n: s.N, mean: s.Mean, m2: s.M2, min: s.Min, max: s.Max}
}

// MarshalJSON encodes the accumulator as its WelfordState, which
// UnmarshalJSON restores bit for bit.
func (w Welford) MarshalJSON() ([]byte, error) { return json.Marshal(w.State()) }

// UnmarshalJSON restores an accumulator from its encoded WelfordState.
func (w *Welford) UnmarshalJSON(data []byte) error {
	var s WelfordState
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	*w = RestoreWelford(s)
	return nil
}

// Mean returns the sample mean, or NaN when empty.
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the unbiased sample variance, or NaN with fewer than two
// observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation, or NaN when empty.
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.min
}

// Max returns the largest observation, or NaN when empty.
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.max
}

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// CI returns a two-sided confidence interval half-width for the mean at the
// given confidence level (e.g. 0.95), using the Student-t quantile.
func (w *Welford) CI(level float64) float64 {
	if w.n < 2 {
		return math.NaN()
	}
	t := StudentTQuantile(1-(1-level)/2, int(w.n-1))
	return t * w.StdErr()
}

func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g",
		w.n, w.Mean(), w.StdDev(), w.Min(), w.Max())
}

// TimeWeighted integrates a piecewise-constant signal (queue length, number
// busy) over time, yielding its time average. The caller reports each change
// point via Observe(t, value): the previously reported value is held from
// the previous timestamp to t.
type TimeWeighted struct {
	started  bool
	lastT    float64
	lastV    float64
	area     float64
	duration float64
	max      float64
}

// Observe records that the signal takes value v from time t onward.
// Timestamps must be non-decreasing.
func (tw *TimeWeighted) Observe(t, v float64) {
	if tw.started {
		if t < tw.lastT {
			panic(timeWentBackwards{t, tw.lastT})
		}
		dt := t - tw.lastT
		tw.area += tw.lastV * dt
		tw.duration += dt
	}
	tw.started = true
	tw.lastT = t
	tw.lastV = v
	if v > tw.max {
		tw.max = v
	}
}

// timeWentBackwards is the panic value of an Observe before the last
// one. Formatting only in Error keeps Observe cheap enough to inline into
// the simulator's centres.
type timeWentBackwards struct{ t, last float64 }

func (e timeWentBackwards) Error() string {
	return fmt.Sprintf("stats: TimeWeighted time went backwards: %v < %v", e.t, e.last)
}

// FlushTo closes the integration interval at time t without changing the
// current value; call it at the end of a simulation.
func (tw *TimeWeighted) FlushTo(t float64) { tw.Observe(t, tw.lastV) }

// Mean returns the time average of the signal, or NaN if no time has been
// accumulated.
func (tw *TimeWeighted) Mean() float64 {
	if tw.duration <= 0 {
		return math.NaN()
	}
	return tw.area / tw.duration
}

// Max returns the maximum value observed.
func (tw *TimeWeighted) Max() float64 { return tw.max }

// Duration returns the total integrated time span.
func (tw *TimeWeighted) Duration() float64 { return tw.duration }

// NormalQuantile returns the p-quantile of the standard normal distribution
// using Acklam's rational approximation (relative error < 1.15e-9).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	// Coefficients for the rational approximations.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// StudentTQuantile returns the p-quantile of Student's t distribution with
// df degrees of freedom, using the Cornish-Fisher style expansion around the
// normal quantile (Abramowitz & Stegun 26.7.5). Accuracy is ample for
// confidence intervals with df >= 3; for df larger than 200 the normal
// quantile is returned directly.
func StudentTQuantile(p float64, df int) float64 {
	if df <= 0 || p <= 0 || p >= 1 {
		return math.NaN()
	}
	z := NormalQuantile(p)
	if df > 200 {
		return z
	}
	n := float64(df)
	z2 := z * z
	g1 := (z2 + 1) * z / 4
	g2 := ((5*z2+16)*z2 + 3) * z / 96
	g3 := (((3*z2+19)*z2+17)*z2 - 15) * z / 384
	g4 := ((((79*z2+776)*z2+1482)*z2-1920)*z2 - 945) * z / 92160
	return z + g1/n + g2/(n*n) + g3/(n*n*n) + g4/(n*n*n*n)
}

// RelError returns |got-want| / |want|. It returns NaN when want is zero
// and got is not.
func RelError(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.NaN()
	}
	return math.Abs(got-want) / math.Abs(want)
}
