package scenario

import (
	"fmt"
	"math"
	"sort"
)

// diurnalSteps is the piecewise-constant discretisation of the sinusoid:
// fine enough that the staircase is invisible next to queueing noise,
// coarse enough that Stretch's segment walk stays trivial.
const diurnalSteps = 64

// flashRampSteps discretises each linear ramp of a flash-crowd profile.
const flashRampSteps = 8

// Profile is a compiled rate profile: a piecewise-constant multiplier
// f(t) > 0 over absolute sim time, optionally cyclic. It modulates
// arrival rates by operational-time stretching — a source that drew gap g
// at time t actually waits Δ with ∫ₜ^(t+Δ) f(u)du = g — so the underlying
// gap sequence (and hence every RNG draw) is untouched. Profiles are
// immutable and safe to share across replications.
type Profile struct {
	ts     []float64 // segment starts; ts[0] == 0
	mult   []float64 // multiplier on [ts[i], ts[i+1]); last extends to +inf or period
	period float64   // 0 = aperiodic
	cycle  float64   // ∫₀^period f for cyclic profiles
}

// Compile turns the spec into its piecewise-constant form, validating as
// it goes.
func (p *ProfileSpec) Compile() (*Profile, error) {
	if p == nil {
		return nil, nil
	}
	switch p.Kind {
	case "piecewise":
		return compilePiecewise(p)
	case "diurnal":
		return compileDiurnal(p)
	case "flash":
		return compileFlash(p)
	}
	return nil, fmt.Errorf("scenario: unknown profile kind %q (want piecewise, diurnal or flash)", p.Kind)
}

func compilePiecewise(p *ProfileSpec) (*Profile, error) {
	if len(p.TimesS) == 0 || len(p.TimesS) != len(p.Factors) {
		return nil, fmt.Errorf("scenario: piecewise profile needs times_s and factors of equal non-zero length, got %d and %d",
			len(p.TimesS), len(p.Factors))
	}
	if p.TimesS[0] != 0 {
		return nil, fmt.Errorf("scenario: piecewise profile must start at times_s[0]=0, got %g", p.TimesS[0])
	}
	for i, t := range p.TimesS {
		if math.IsNaN(t) || math.IsInf(t, 0) || (i > 0 && t <= p.TimesS[i-1]) {
			return nil, fmt.Errorf("scenario: piecewise times_s must be finite and strictly ascending (index %d)", i)
		}
	}
	for i, f := range p.Factors {
		if !(f > 0) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("scenario: profile factors must be positive and finite, got %g at index %d", f, i)
		}
	}
	if p.PeriodS < 0 || (p.PeriodS > 0 && p.PeriodS <= p.TimesS[len(p.TimesS)-1]) {
		return nil, fmt.Errorf("scenario: piecewise period_s %g must exceed the last times_s %g",
			p.PeriodS, p.TimesS[len(p.TimesS)-1])
	}
	return newProfile(p.TimesS, p.Factors, p.PeriodS), nil
}

func compileDiurnal(p *ProfileSpec) (*Profile, error) {
	if !(p.PeriodS > 0) || math.IsInf(p.PeriodS, 0) {
		return nil, fmt.Errorf("scenario: diurnal profile needs a positive finite period_s, got %g", p.PeriodS)
	}
	if !(p.Amplitude >= 0 && p.Amplitude < 1) {
		return nil, fmt.Errorf("scenario: diurnal amplitude %g must be in [0, 1) so the rate stays positive", p.Amplitude)
	}
	ts := make([]float64, diurnalSteps)
	mult := make([]float64, diurnalSteps)
	for i := 0; i < diurnalSteps; i++ {
		ts[i] = float64(i) / diurnalSteps * p.PeriodS
		mid := (float64(i) + 0.5) / diurnalSteps
		mult[i] = 1 + p.Amplitude*math.Sin(2*math.Pi*mid)
	}
	return newProfile(ts, mult, p.PeriodS), nil
}

func compileFlash(p *ProfileSpec) (*Profile, error) {
	if !(p.PeakFactor > 0) || math.IsInf(p.PeakFactor, 0) {
		return nil, fmt.Errorf("scenario: flash profile needs a positive finite peak_factor, got %g", p.PeakFactor)
	}
	for _, v := range []struct {
		name string
		v    float64
	}{{"start_s", p.StartS}, {"ramp_s", p.RampS}, {"hold_s", p.HoldS}} {
		if v.v < 0 || math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return nil, fmt.Errorf("scenario: flash %s %g must be non-negative and finite", v.name, v.v)
		}
	}
	ts := []float64{0}
	mult := []float64{1}
	push := func(t, f float64) {
		if t > ts[len(ts)-1] {
			ts = append(ts, t)
			mult = append(mult, f)
		} else {
			mult[len(mult)-1] = f
		}
	}
	t := p.StartS
	if p.RampS > 0 {
		for i := 0; i < flashRampSteps; i++ {
			frac := (float64(i) + 0.5) / flashRampSteps
			push(t+float64(i)/flashRampSteps*p.RampS, 1+frac*(p.PeakFactor-1))
		}
		t += p.RampS
	}
	push(t, p.PeakFactor)
	t += p.HoldS
	if p.RampS > 0 {
		for i := 0; i < flashRampSteps; i++ {
			frac := (float64(i) + 0.5) / flashRampSteps
			push(t+float64(i)/flashRampSteps*p.RampS, p.PeakFactor-frac*(p.PeakFactor-1))
		}
		t += p.RampS
	}
	push(t, 1)
	return newProfile(ts, mult, 0), nil
}

func newProfile(ts, mult []float64, period float64) *Profile {
	p := &Profile{
		ts:     append([]float64(nil), ts...),
		mult:   append([]float64(nil), mult...),
		period: period,
	}
	if period > 0 {
		for i := range p.ts {
			end := period
			if i+1 < len(p.ts) {
				end = p.ts[i+1]
			}
			p.cycle += (end - p.ts[i]) * p.mult[i]
		}
	}
	return p
}

// At returns the multiplier at absolute time t (mainly for tests and the
// transient-analysis ground truth).
func (p *Profile) At(t float64) float64 {
	pos := t
	if p.period > 0 {
		pos = math.Mod(t, p.period)
		if pos < 0 {
			pos += p.period
		}
	}
	return p.mult[p.segAt(pos)]
}

// segAt returns the index of the segment containing pos (pos ≥ 0; for
// cyclic profiles pos < period).
func (p *Profile) segAt(pos float64) int {
	i := sort.SearchFloat64s(p.ts, pos)
	if i == len(p.ts) || p.ts[i] > pos {
		i--
	}
	if i < 0 {
		i = 0
	}
	return i
}

// Stretch maps an operational-time gap g drawn at absolute time t to the
// wall-clock gap Δ with ∫ₜ^(t+Δ) f(u)du = g. A multiplier above 1 shrinks
// gaps (the rate rises), below 1 stretches them. Pure: no state, no RNG.
func (p *Profile) Stretch(t, g float64) float64 {
	if p == nil || !(g > 0) {
		return g
	}
	rem := g
	elapsed := 0.0
	pos := t
	if p.period > 0 {
		pos = math.Mod(t, p.period)
		if pos < 0 {
			pos += p.period
		}
	}
	for {
		i := p.segAt(pos)
		end := math.Inf(1)
		if i+1 < len(p.ts) {
			end = p.ts[i+1]
		} else if p.period > 0 {
			end = p.period
		}
		f := p.mult[i]
		if cap := (end - pos) * f; rem <= cap || math.IsInf(end, 1) {
			return elapsed + rem/f
		} else {
			rem -= cap
		}
		elapsed += end - pos
		pos = end
		if p.period > 0 && pos >= p.period {
			if rem >= p.cycle {
				n := math.Floor(rem / p.cycle)
				rem -= n * p.cycle
				elapsed += n * p.period
			}
			pos = 0
		}
	}
}
