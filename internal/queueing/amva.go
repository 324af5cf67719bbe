package queueing

import (
	"fmt"
	"math"
)

// ApproxMVA solves the same closed network as MVA with Schweitzer's
// fixed-point approximation, whose cost is independent of the population
// size. Exact MVA is O(N·K); for design sweeps over very large populations
// (the paper's model is pitched at exactly such sweeps) the approximation
// answers in a handful of iterations with errors typically under a few
// percent.
//
// Schweitzer's estimate replaces the exact arrival-theorem term
// Q_i(n−1) with Q_i(n)·(n−1)/n and iterates to a fixed point.
func ApproxMVA(stations []MVAStation, thinkTime float64, population int) (*MVAResult, error) {
	if population < 1 {
		return nil, fmt.Errorf("queueing: AMVA population must be >= 1, got %d", population)
	}
	if thinkTime < 0 {
		return nil, fmt.Errorf("queueing: AMVA think time %g is negative", thinkTime)
	}
	if len(stations) == 0 {
		return nil, fmt.Errorf("queueing: AMVA needs at least one station")
	}
	for i, s := range stations {
		if !(s.VisitRatio >= 0) || !(s.ServiceTime >= 0) {
			return nil, fmt.Errorf("queueing: station %d (%s) has invalid parameters", i, s.Name)
		}
	}
	k := len(stations)
	n := float64(population)
	// Initialise with the population spread evenly.
	q := make([]float64, k)
	for i := range q {
		q[i] = n / float64(k)
	}
	wait := make([]float64, k)
	residence := make([]float64, k)
	var x, cycle float64
	const tol = 1e-10
	for iter := 0; iter < 10000; iter++ {
		cycle = thinkTime
		for i, s := range stations {
			wait[i] = s.ServiceTime * (1 + q[i]*(n-1)/n)
			residence[i] = s.VisitRatio * wait[i]
			cycle += residence[i]
		}
		x = n / cycle
		delta := 0.0
		for i := range stations {
			next := x * residence[i]
			delta = math.Max(delta, math.Abs(next-q[i]))
			q[i] = next
		}
		if delta < tol {
			break
		}
	}
	res := &MVAResult{
		Population:  population,
		Throughput:  x,
		CycleTime:   cycle,
		Residence:   append([]float64(nil), residence...),
		WaitPerVis:  append([]float64(nil), wait...),
		QueueLength: append([]float64(nil), q...),
		Utilization: make([]float64, k),
	}
	for i, s := range stations {
		res.Utilization[i] = x * s.VisitRatio * s.ServiceTime
	}
	return res, nil
}
