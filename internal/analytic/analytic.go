// Package analytic implements the paper's analytical performance model for
// HMSCS multi-cluster systems (§4–5): every communication network is an
// M/M/1 service centre fed by the Jackson-network arrival rates of
// eq. 1–5, processors block while a request is in flight, and the effective
// generation rate is found by the fixed-point iteration of eq. 7. The
// primary output is the mean message latency of eq. 15.
//
// The package also provides an exact Mean Value Analysis solution of the
// same system viewed as a closed queueing network, used as a cross-check
// for the paper's open-model approximation (an ablation the paper does not
// include).
package analytic

import (
	"fmt"
	"math"

	"hmscs/internal/core"
	"hmscs/internal/queueing"
)

// CenterKind labels the three kinds of service centres of Figure 2.
type CenterKind int

const (
	// ICN1 is a cluster's intra-communication network.
	ICN1 CenterKind = iota
	// ECN1 is a cluster's inter-communication network.
	ECN1
	// ICN2 is the global second-stage network.
	ICN2
)

func (k CenterKind) String() string {
	switch k {
	case ICN1:
		return "ICN1"
	case ECN1:
		return "ECN1"
	case ICN2:
		return "ICN2"
	default:
		return fmt.Sprintf("CenterKind(%d)", int(k))
	}
}

// CenterMetrics reports the steady-state M/M/1 quantities of one service
// centre at the converged effective rate.
type CenterMetrics struct {
	Kind    CenterKind
	Cluster int     // cluster index, -1 for ICN2
	Lambda  float64 // arrival rate at the fixed point
	Mu      float64 // service rate
	Rho     float64 // utilisation
	W       float64 // mean sojourn time (eq. 16)
	L       float64 // mean number in system
}

// Result is the analytical model's output for one configuration.
type Result struct {
	// P is the out-of-cluster probability of eq. 8 for cluster 0 (equal
	// across clusters in the homogeneous case).
	P float64
	// Scale is the converged effective-rate factor λ_eff/λ of eq. 7.
	Scale float64
	// Iterations is the number of fixed-point refinement steps used.
	Iterations int
	// MeanLatency is T_C of eq. 15, in seconds.
	MeanLatency float64
	// TotalWaiting is L of eq. 6: the mean number of blocked processors.
	TotalWaiting float64
	// Saturated reports that the raw rates (scale=1) would overload at
	// least one centre, so the effective-rate iteration governs behaviour.
	Saturated bool
	// Centers holds per-centre metrics at the fixed point.
	Centers []CenterMetrics
}

// Bottleneck returns the centre with the highest utilisation.
func (r *Result) Bottleneck() CenterMetrics {
	best := r.Centers[0]
	for _, c := range r.Centers[1:] {
		if c.Rho > best.Rho {
			best = c
		}
	}
	return best
}

// CenterW returns the mean sojourn time of the given centre, or NaN when it
// does not exist (e.g. ICN2 cluster index must be -1).
func (r *Result) CenterW(kind CenterKind, cluster int) float64 {
	for _, c := range r.Centers {
		if c.Kind == kind && c.Cluster == cluster {
			return c.W
		}
	}
	return math.NaN()
}

// model bundles the pre-computed service rates for a configuration and the
// arrival-rate buffer its fixed point fills in place.
type model struct {
	muICN1   []float64
	muECN1   []float64
	muICN2   float64
	nTotal   int
	saturCap float64 // L value used for unstable probes = total processors

	// fill writes the per-centre arrival rates at generation-rate scale s
	// into rates; Config.ArrivalRatesInto unless a variant reroutes traffic.
	fill  func(r *core.Rates, s float64)
	rates core.Rates
}

// newModel builds the model of a validated configuration.
func newModel(cfg *core.Config) (*model, error) {
	c := len(cfg.Clusters)
	m := &model{
		muICN1: make([]float64, c),
		muECN1: make([]float64, c),
		nTotal: cfg.TotalNodes(),
		fill:   cfg.ArrivalRatesInto,
		rates:  core.Rates{ICN1: make([]float64, c), ECN1: make([]float64, c)},
	}
	// The service times land in the rate slices first and are inverted in
	// place.
	sI2, err := cfg.ServiceTimesInto(m.muICN1, m.muECN1)
	if err != nil {
		return nil, err
	}
	m.muICN2 = 1 / sI2
	for i := range m.muICN1 {
		m.muICN1[i] = 1 / m.muICN1[i]
		m.muECN1[i] = 1 / m.muECN1[i]
	}
	m.saturCap = float64(m.nTotal)
	return m, nil
}

// queueLen returns the mean number in system of one centre with arrival
// rate lambda and service rate mu, or ok=false when the centre is
// saturated.
type queueLen func(lambda, mu float64) (l float64, ok bool)

// mm1Len is the M/M/1 queue length ρ/(1−ρ) of eq. 6.
func mm1Len(lambda, mu float64) (float64, bool) {
	if lambda >= mu {
		return 0, false
	}
	rho := lambda / mu
	return rho / (1 - rho), true
}

// totalWaiting returns L(s), the mean number of blocked processors when all
// generation rates are scaled by s. Any saturated centre clamps the result
// to the total processor count, which keeps the fixed-point map
// well-defined on all of [0,1] (paper eq. 6 with the physical cap).
func (m *model) totalWaiting(s float64, ql queueLen) float64 {
	m.fill(&m.rates, s)
	r := &m.rates
	total := 0.0
	for i := range m.muICN1 {
		l, ok := ql(r.ICN1[i], m.muICN1[i])
		if !ok {
			return m.saturCap
		}
		total += l
		if l, ok = ql(r.ECN1[i], m.muECN1[i]); !ok {
			return m.saturCap
		}
		total += l
	}
	l, ok := ql(r.ICN2, m.muICN2)
	if !ok {
		return m.saturCap
	}
	total += l
	if total > m.saturCap {
		return m.saturCap
	}
	return total
}

// fixedPoint solves s = (N − L(s))/N by bisection. h(s) = s − g(s) is
// strictly increasing (L is increasing in s), h(0) < 0 and h(1) >= 0, so a
// unique root exists in (0, 1]. It also reports whether the raw rates
// (s = 1) saturate the system.
func (m *model) fixedPoint(ql queueLen) (scale float64, iters int, saturated bool) {
	nTotal := float64(m.nTotal)
	g := func(l float64) float64 { return (nTotal - l) / nTotal }
	l1 := m.totalWaiting(1, ql)
	saturated = l1 >= m.saturCap
	if h := 1 - g(l1); h <= 0 {
		// No blocking pressure at all: the raw rate is the fixed point.
		return 1, 1, saturated
	}
	lo, hi := 0.0, 1.0
	const tol = 1e-12
	n := 0
	for hi-lo > tol && n < 200 {
		mid := (lo + hi) / 2
		if mid-g(m.totalWaiting(mid, ql)) < 0 {
			lo = mid
		} else {
			hi = mid
		}
		n++
	}
	return (lo + hi) / 2, n, saturated
}

// station evaluates one centre at the fixed point: utilisation, mean
// sojourn time and mean number in system.
type station func(lambda, mu float64) (rho, w, l float64, err error)

// mm1Station is the paper's M/M/1 centre (eq. 16).
func mm1Station(lambda, mu float64) (rho, w, l float64, err error) {
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

// solve finds the effective-rate fixed point with queue lengths ql and
// evaluates every centre there with st. Centers is laid out as
// [ICN1₀, ECN1₀, ICN1₁, ECN1₁, …, ICN2], which the latency sums read by
// position. The caller fills in P and MeanLatency.
func (m *model) solve(ql queueLen, st station) (*Result, error) {
	res := &Result{}
	res.Scale, res.Iterations, res.Saturated = m.fixedPoint(ql)
	m.fill(&m.rates, res.Scale)
	r := &m.rates

	c := len(m.muICN1)
	res.Centers = make([]CenterMetrics, 0, 2*c+1)
	add := func(kind CenterKind, cluster int, lambda, mu float64) error {
		// The bisection can land within tolerance of a saturation
		// boundary; nudge just below it so the formulas stay finite.
		if !(lambda < mu) {
			lambda = mu * (1 - 1e-9)
		}
		rho, w, l, err := st(lambda, mu)
		if err != nil {
			return err
		}
		res.Centers = append(res.Centers, CenterMetrics{Kind: kind, Cluster: cluster,
			Lambda: lambda, Mu: mu, Rho: rho, W: w, L: l})
		return nil
	}
	for i := 0; i < c; i++ {
		if err := add(ICN1, i, r.ICN1[i], m.muICN1[i]); err != nil {
			return nil, err
		}
		if err := add(ECN1, i, r.ECN1[i], m.muECN1[i]); err != nil {
			return nil, err
		}
	}
	if err := add(ICN2, -1, r.ICN2, m.muICN2); err != nil {
		return nil, err
	}
	for i := range res.Centers {
		res.TotalWaiting += res.Centers[i].L
	}
	return res, nil
}

// Analyze evaluates the paper's analytical model for the configuration and
// returns the mean message latency and per-centre metrics. One call costs
// O(C) time and a number of allocations independent of C for a system of
// identical clusters.
func Analyze(cfg *core.Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := newModel(cfg)
	if err != nil {
		return nil, err
	}
	res, err := m.solve(mm1Len, mm1Station)
	if err != nil {
		return nil, err
	}
	res.P = cfg.POut(0)
	res.MeanLatency = meanLatency(cfg, res)
	return res, nil
}

// meanLatency evaluates eq. 15 generalised to heterogeneous clusters: a
// message from cluster i is local with probability (Nᵢ−1)/(N_T−1) and costs
// W_I1ᵢ; otherwise it targets cluster j with probability Nⱼ/(N_T−1) and
// costs W_E1ᵢ + W_I2 + W_E1ⱼ. Source clusters are weighted by their share
// of generated traffic.
func meanLatency(cfg *core.Config, res *Result) float64 {
	nt := cfg.TotalNodes()
	traffic := cfg.TotalTraffic()
	ctr := res.Centers
	wI2 := ctr[2*len(cfg.Clusters)].W
	// Pre-compute Σⱼ Nⱼ·W_E1ⱼ so the destination-side term is O(1) per
	// source cluster.
	sumNW := 0.0
	for j := range cfg.Clusters {
		sumNW += float64(cfg.Clusters[j].Nodes) * ctr[2*j+1].W
	}
	total := 0.0
	for i := range cfg.Clusters {
		cl := &cfg.Clusters[i]
		wi := cl.TrafficWeightOf(traffic)
		ni := cl.Nodes
		local := float64(ni-1) / float64(nt-1)
		pi := cl.POutOf(nt)
		wE1 := ctr[2*i+1].W
		destE1 := (sumNW - float64(ni)*wE1) / float64(nt-1)
		li := local*ctr[2*i].W + pi*(wE1+wI2) + destE1
		total += wi * li
	}
	return total
}
