// Package queueing implements the analytical queueing building blocks the
// paper's model rests on: the single-station M/M/1 and M/G/1 formulas of
// its service centres, and closed-network Mean Value Analysis (exact,
// Schweitzer-approximate and multiclass) used as a cross-check for the
// paper's effective-rate iteration.
//
// Conventions: rates are per second, times in seconds. Every constructor
// validates its inputs; stations report ErrUnstable when the offered load
// reaches or exceeds capacity.
package queueing

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnstable is returned when a station's utilisation is >= 1, i.e. the
// queue has no steady state.
var ErrUnstable = errors.New("queueing: station is unstable (utilisation >= 1)")

// MM1 describes a single-server queue with Poisson arrivals and exponential
// service. This is the service-centre model the paper assumes for every
// communication network (eq. 16).
type MM1 struct {
	Lambda float64 // arrival rate
	Mu     float64 // service rate
}

// NewMM1 validates rates and returns the station. Stability is not required
// at construction time: the effective-rate iteration probes unstable points
// and handles ErrUnstable from the metric methods.
func NewMM1(lambda, mu float64) (MM1, error) {
	if !(lambda >= 0) || math.IsInf(lambda, 1) {
		return MM1{}, fmt.Errorf("queueing: invalid arrival rate %g", lambda)
	}
	if !(mu > 0) || math.IsInf(mu, 1) {
		return MM1{}, fmt.Errorf("queueing: invalid service rate %g", mu)
	}
	return MM1{Lambda: lambda, Mu: mu}, nil
}

// Rho returns the utilisation λ/µ.
func (q MM1) Rho() float64 { return q.Lambda / q.Mu }

// Stable reports whether the queue has a steady state.
func (q MM1) Stable() bool { return q.Lambda < q.Mu }

// W returns the mean sojourn (waiting + service) time 1/(µ−λ), the paper's
// eq. (16).
func (q MM1) W() (float64, error) {
	if !q.Stable() {
		return math.Inf(1), ErrUnstable
	}
	return 1 / (q.Mu - q.Lambda), nil
}

// L returns the mean number in system ρ/(1−ρ), used for the paper's eq. (6)
// count of waiting processors.
func (q MM1) L() (float64, error) {
	if !q.Stable() {
		return math.Inf(1), ErrUnstable
	}
	rho := q.Rho()
	return rho / (1 - rho), nil
}

// MG1 describes a single-server queue with Poisson arrivals and general
// service with the given mean and squared coefficient of variation. Used in
// ablations where simulator service is deterministic (M/D/1, SCV=0) or
// high-variance (M/H2/1, SCV>1).
type MG1 struct {
	Lambda      float64
	ServiceMean float64
	ServiceSCV  float64
}

// NewMG1 validates the parameters.
func NewMG1(lambda, mean, scv float64) (MG1, error) {
	if !(lambda >= 0) {
		return MG1{}, fmt.Errorf("queueing: invalid arrival rate %g", lambda)
	}
	if !(mean > 0) {
		return MG1{}, fmt.Errorf("queueing: invalid service mean %g", mean)
	}
	if !(scv >= 0) {
		return MG1{}, fmt.Errorf("queueing: invalid service SCV %g", scv)
	}
	return MG1{Lambda: lambda, ServiceMean: mean, ServiceSCV: scv}, nil
}

// Rho returns the utilisation λ·E[S].
func (q MG1) Rho() float64 { return q.Lambda * q.ServiceMean }

// Stable reports whether the queue has a steady state.
func (q MG1) Stable() bool { return q.Rho() < 1 }

// Wq returns the Pollaczek–Khinchine mean waiting time
// ρ·E[S]·(1+c²)/(2(1−ρ)).
func (q MG1) Wq() (float64, error) {
	if !q.Stable() {
		return math.Inf(1), ErrUnstable
	}
	rho := q.Rho()
	return rho * q.ServiceMean * (1 + q.ServiceSCV) / (2 * (1 - rho)), nil
}

// W returns the mean sojourn time Wq + E[S].
func (q MG1) W() (float64, error) {
	wq, err := q.Wq()
	if err != nil {
		return wq, err
	}
	return wq + q.ServiceMean, nil
}

// L returns the mean number in system via Little's law.
func (q MG1) L() (float64, error) {
	w, err := q.W()
	if err != nil {
		return w, err
	}
	return q.Lambda * w, nil
}
