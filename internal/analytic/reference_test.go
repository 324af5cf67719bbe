package analytic

import (
	"fmt"

	"hmscs/internal/core"
	"hmscs/internal/queueing"
)

// This file keeps a straightforward reference evaluation of the model for
// the bit-identity property test: the per-cluster POut and TrafficWeight
// calls, the CenterW scans, fresh rate slices on every bisection step and
// one network model per centre. The production code hoists the integer
// totals and reads centres by position; every floating-point expression
// and summation order must stay the same, so the two agree bit for bit.

// refArrivalRates is the per-step rate computation with POut re-summing
// N_T for every cluster.
func refArrivalRates(c *core.Config, scale float64) core.Rates {
	nt := c.TotalNodes()
	r := core.Rates{
		ICN1: make([]float64, len(c.Clusters)),
		ECN1: make([]float64, len(c.Clusters)),
	}
	if nt <= 1 {
		return r
	}
	totalGen := 0.0
	for _, cl := range c.Clusters {
		totalGen += float64(cl.Nodes) * cl.Lambda * scale
	}
	for i, cl := range c.Clusters {
		li := cl.Lambda * scale
		pi := c.POut(i)
		gen := float64(cl.Nodes) * li
		r.ICN1[i] = float64(cl.Nodes) * (1 - pi) * li
		outbound := gen * pi
		inbound := max(0, (totalGen-gen)*float64(cl.Nodes)/float64(nt-1))
		r.ECN1[i] = outbound + inbound
		r.ICN2 += outbound
	}
	return r
}

// refModel holds the service rates built from one network model per centre.
type refModel struct {
	muICN1, muECN1 []float64
	muICN2         float64
	nTotal         float64
}

func newRefModel(cfg *core.Config) (*refModel, error) {
	centers, err := cfg.BuildCenters()
	if err != nil {
		return nil, err
	}
	sI1, sE1, sI2 := centers.ServiceTimes(cfg.MessageBytes)
	m := &refModel{
		muICN1: make([]float64, len(sI1)),
		muECN1: make([]float64, len(sE1)),
		muICN2: 1 / sI2,
		nTotal: float64(cfg.TotalNodes()),
	}
	for i := range sI1 {
		m.muICN1[i] = 1 / sI1[i]
		m.muECN1[i] = 1 / sE1[i]
	}
	return m, nil
}

// refSolve runs the saturation probe and the bisection on L(s), where
// rates(s) gives fresh per-centre arrival rates and add reports one
// centre's queue length (false when saturated).
func (m *refModel) refSolve(res *Result, rates func(float64) core.Rates,
	add func(lambda, mu float64) (float64, bool)) {
	totalWaiting := func(s float64) float64 {
		r := rates(s)
		total := 0.0
		for i := range m.muICN1 {
			l, ok := add(r.ICN1[i], m.muICN1[i])
			if !ok {
				return m.nTotal
			}
			total += l
			l, ok = add(r.ECN1[i], m.muECN1[i])
			if !ok {
				return m.nTotal
			}
			total += l
		}
		l, ok := add(r.ICN2, m.muICN2)
		if !ok {
			return m.nTotal
		}
		total += l
		if total > m.nTotal {
			return m.nTotal
		}
		return total
	}
	res.Saturated = totalWaiting(1) >= m.nTotal
	g := func(s float64) float64 { return (m.nTotal - totalWaiting(s)) / m.nTotal }
	if 1-g(1) <= 0 {
		res.Scale, res.Iterations = 1, 1
		return
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 200 && hi-lo > 1e-12; i++ {
		mid := (lo + hi) / 2
		if mid-g(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
		res.Iterations++
	}
	res.Scale = (lo + hi) / 2
}

// refCenters appends every centre's metrics in the [ICN1₀, ECN1₀, …, ICN2]
// order and sums their queue lengths.
func (m *refModel) refCenters(res *Result, r core.Rates,
	station func(lambda, mu float64) (rho, w, l float64, err error)) error {
	mk := func(kind CenterKind, cluster int, lambda, mu float64) error {
		if !(lambda < mu) {
			lambda = mu * (1 - 1e-9)
		}
		rho, w, l, err := station(lambda, mu)
		if err != nil {
			return err
		}
		res.Centers = append(res.Centers, CenterMetrics{Kind: kind, Cluster: cluster,
			Lambda: lambda, Mu: mu, Rho: rho, W: w, L: l})
		return nil
	}
	for i := range m.muICN1 {
		if err := mk(ICN1, i, r.ICN1[i], m.muICN1[i]); err != nil {
			return err
		}
		if err := mk(ECN1, i, r.ECN1[i], m.muECN1[i]); err != nil {
			return err
		}
	}
	if err := mk(ICN2, -1, r.ICN2, m.muICN2); err != nil {
		return err
	}
	for _, c := range res.Centers {
		res.TotalWaiting += c.L
	}
	return nil
}

func refMM1Len(lambda, mu float64) (float64, bool) {
	if lambda >= mu {
		return 0, false
	}
	rho := lambda / mu
	return rho / (1 - rho), true
}

func refMM1Station(lambda, mu float64) (rho, w, l float64, err error) {
	st, err := queueing.NewMM1(lambda, mu)
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

// refMeanLatency is eq. 15 with a CenterW scan per lookup and a full
// TrafficWeight and POut re-sum per source cluster.
func refMeanLatency(cfg *core.Config, res *Result) float64 {
	nt := cfg.TotalNodes()
	wI2 := res.CenterW(ICN2, -1)
	wE1 := make([]float64, len(cfg.Clusters))
	sumNW := 0.0
	for j := range cfg.Clusters {
		wE1[j] = res.CenterW(ECN1, j)
		sumNW += float64(cfg.Clusters[j].Nodes) * wE1[j]
	}
	total := 0.0
	for i := range cfg.Clusters {
		wi := cfg.TrafficWeight(i)
		ni := cfg.Clusters[i].Nodes
		local := float64(ni-1) / float64(nt-1)
		pi := cfg.POut(i)
		destE1 := (sumNW - float64(ni)*wE1[i]) / float64(nt-1)
		li := local*res.CenterW(ICN1, i) + pi*(wE1[i]+wI2) + destE1
		total += wi * li
	}
	return total
}

func refAnalyze(cfg *core.Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := newRefModel(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{P: cfg.POut(0)}
	rates := func(s float64) core.Rates { return refArrivalRates(cfg, s) }
	m.refSolve(res, rates, refMM1Len)
	if err := m.refCenters(res, rates(res.Scale), refMM1Station); err != nil {
		return nil, err
	}
	res.MeanLatency = refMeanLatency(cfg, res)
	return res, nil
}

func refAnalyzeSCV(cfg *core.Config, scv float64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !(scv >= 0) {
		return nil, fmt.Errorf("analytic: SCV %g must be non-negative", scv)
	}
	m, err := newRefModel(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{P: cfg.POut(0)}
	rates := func(s float64) core.Rates { return refArrivalRates(cfg, s) }
	m.refSolve(res, rates, func(lambda, mu float64) (float64, bool) {
		if lambda >= mu {
			return 0, false
		}
		st, err := queueing.NewMG1(lambda, 1/mu, scv)
		if err != nil {
			return 0, false
		}
		l, err := st.L()
		if err != nil {
			return 0, false
		}
		return l, true
	})
	err = m.refCenters(res, rates(res.Scale), func(lambda, mu float64) (rho, w, l float64, err error) {
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
	})
	if err != nil {
		return nil, err
	}
	res.MeanLatency = refMeanLatency(cfg, res)
	return res, nil
}

func refAnalyzeLocality(cfg *core.Config, locality float64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if locality < 0 || locality > 1 {
		return nil, fmt.Errorf("analytic: locality %g outside [0,1]", locality)
	}
	m, err := newRefModel(cfg)
	if err != nil {
		return nil, err
	}
	nt := cfg.TotalNodes()
	c := cfg.NumClusters()
	pLocal := make([]float64, c)
	for i, cl := range cfg.Clusters {
		p := locality
		if cl.Nodes <= 1 {
			p = 0
		}
		if nt-cl.Nodes == 0 {
			p = 1
		}
		pLocal[i] = p
	}
	rates := func(s float64) core.Rates {
		r := core.Rates{ICN1: make([]float64, c), ECN1: make([]float64, c)}
		outbound := make([]float64, c)
		for i, cl := range cfg.Clusters {
			gen := float64(cl.Nodes) * cl.Lambda * s
			r.ICN1[i] = gen * pLocal[i]
			outbound[i] = gen * (1 - pLocal[i])
			r.ICN2 += outbound[i]
		}
		for i, cl := range cfg.Clusters {
			inbound := 0.0
			for j, other := range cfg.Clusters {
				if j == i || nt == other.Nodes {
					continue
				}
				share := float64(cl.Nodes) / float64(nt-other.Nodes)
				inbound += outbound[j] * share
			}
			r.ECN1[i] = outbound[i] + inbound
		}
		return r
	}
	res := &Result{P: 1 - pLocal[0]}
	m.refSolve(res, rates, refMM1Len)
	if err := m.refCenters(res, rates(res.Scale), refMM1Station); err != nil {
		return nil, err
	}
	wI2 := res.CenterW(ICN2, -1)
	total := 0.0
	for i := range cfg.Clusters {
		wi := cfg.TrafficWeight(i)
		li := pLocal[i] * res.CenterW(ICN1, i)
		remote := 1 - pLocal[i]
		if remote > 0 {
			destTerm := 0.0
			for j := range cfg.Clusters {
				if j == i {
					continue
				}
				share := float64(cfg.Clusters[j].Nodes) / float64(nt-cfg.Clusters[i].Nodes)
				destTerm += share * res.CenterW(ECN1, j)
			}
			li += remote * (res.CenterW(ECN1, i) + wI2 + destTerm)
		}
		total += wi * li
	}
	res.MeanLatency = total
	return res, nil
}
