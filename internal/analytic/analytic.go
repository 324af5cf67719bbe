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
	"cmp"
	"fmt"
	"math"
	"slices"

	"hmscs/internal/core"
	"hmscs/internal/network"
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
	if k >= ICN1 && k <= ICN2 {
		return [...]string{"ICN1", "ECN1", "ICN2"}[k]
	}
	return fmt.Sprintf("CenterKind(%d)", int(k))
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
	// Iterations counts the fixed point's bisection steps: 40, or 1 when
	// the raw rate is the fixed point. Most steps are decided by the
	// bracket without evaluating L(s) (see fixedPoint), so this is not
	// the number of model evaluations.
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

	// runs is the model's storage, kept so that AnalyzeInto on this
	// Result reuses it.
	runs []run
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

// run is one run of consecutive equal clusters (node count, rate and
// technologies), whose arrival rates and queue lengths are bit-identical,
// so the model evaluates them once per run.
type run struct {
	core.RateTerms
	muI1, muE1 float64
	count      int
	pLocal     float64 // AnalyzeLocality's local probability

	// Rates at the last scale passed to load; out under the locality split.
	lamI1, lamE1, out float64
}

// model is a configuration as runs of equal clusters. An evaluation of
// L(s) costs O(runs) divisions and O(C) additions: every sum adds one
// term per cluster, in cluster order, bit-identical to a per-cluster
// evaluation.
type model struct {
	runs     []run
	clusters int
	muICN2   float64
	nTotal   float64 // N_T, also L(s) at any saturated probe
	locality bool    // rates follow AnalyzeLocality's split, not eq. 1–5
	lamI2    float64 // λ_I2 at the last scale passed to load
	evals    int     // L(s) evaluations by fixedPoint
}

// newModel builds the model of a validated configuration in the storage
// of runs, which it truncates and grows only when it may be too short.
func newModel(cfg *core.Config, runs []run) (model, error) {
	nt := cfg.TotalNodes()
	if cap(runs) < len(cfg.Clusters) {
		runs = slices.Grow(runs[:0], cfg.Runs())
	}
	m := model{runs: runs[:0], clusters: len(cfg.Clusters), nTotal: float64(nt)}
	icn2, err := cfg.EachClusterModels(func(first, n int, mI1, mE1 network.Model) {
		muI1 := 1 / mI1.MeanServiceTime(cfg.MessageBytes)
		muE1 := 1 / mE1.MeanServiceTime(cfg.MessageBytes)
		for i := first; i < first+n; i++ {
			if i > first && cfg.Clusters[i] == cfg.Clusters[i-1] {
				m.runs[len(m.runs)-1].count++
				continue
			}
			m.runs = append(m.runs, run{RateTerms: cfg.Clusters[i].RateTerms(nt), count: 1,
				muI1: muI1, muE1: muE1})
		}
	})
	if err != nil {
		return model{}, err
	}
	m.muICN2 = 1 / icn2.MeanServiceTime(cfg.MessageBytes)
	return m, nil
}

// queueLen selects the queue length L(ρ) of one centre that the fixed
// point sums: the paper's M/M/1 ρ/(1−ρ) of eq. 6 (the zero value), or the
// Pollaczek–Khinchine M/G/1 length at service SCV scv.
type queueLen struct {
	mg1 bool
	scv float64
}

// at returns the mean number in system of a centre with arrival rate
// lambda and service rate mu, or ok=false when the centre is saturated.
func (ql queueLen) at(lambda, mu float64) (float64, bool) {
	if lambda >= mu {
		return 0, false
	}
	if ql.mg1 {
		_, _, l, err := ql.station(lambda, mu)
		return l, err == nil
	}
	rho := lambda / mu
	return rho / (1 - rho), true
}

// station evaluates one centre at the fixed point: utilisation, mean
// sojourn time and mean number in system (eq. 16, or its M/G/1 form).
func (ql queueLen) station(lambda, mu float64) (rho, w, l float64, err error) {
	if ql.mg1 {
		st, err := queueing.NewMG1(lambda, 1/mu, ql.scv)
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

// pole is lim (1−ρ)·L(ρ) as ρ → 1, the weight of a saturating centre's
// pole in h; it only steers the bracket.
func (ql queueLen) pole() float64 {
	if ql.mg1 {
		return (1 + ql.scv) / 2
	}
	return 1
}

// load sets every run's arrival rates, and lamI2, at generation-rate scale
// s (eq. 1–5, or the locality split) and returns the summed queue lengths
// of eq. 6, which are meaningful only if no centre saturates.
func (m *model) load(s float64, ql queueLen) (l float64, saturated bool) {
	totalGen, icn2 := 0.0, 0.0
	if m.locality {
		icn2 = m.localityRates(s)
	} else {
		for i := range m.runs {
			g := m.runs[i].NLambda * s
			for range m.runs[i].count {
				totalGen += g
			}
		}
	}
	for i := range m.runs {
		r := &m.runs[i]
		if !m.locality {
			var out float64
			r.lamI1, r.lamE1, out = r.At(s, totalGen, m.nTotal-1)
			for range r.count {
				icn2 += out
			}
		}
		lI, okI := ql.at(r.lamI1, r.muI1)
		lE, okE := ql.at(r.lamE1, r.muE1)
		saturated = saturated || !okI || !okE
		for range r.count {
			l += lI
			l += lE
		}
	}
	m.lamI2 = icn2
	lI2, ok := ql.at(icn2, m.muICN2)
	return l + lI2, saturated || !ok
}

// eval returns L(s), the mean number of blocked processors when all
// generation rates are scaled by s, as the bisection reads it: any
// saturated centre clamps it to the total processor count N, which keeps
// the fixed-point map well-defined on all of [0,1] (paper eq. 6 with the
// physical cap). lu is the unclamped sum, finite unless a centre
// saturates; h computed from it has the clamped h's sign.
func (m *model) eval(s float64, ql queueLen) (l, lu float64, finite bool) {
	m.evals++
	lu, saturated := m.load(s, ql)
	if saturated || lu > m.nTotal {
		return m.nTotal, lu, !saturated
	}
	return lu, lu, true
}

// g is the fixed-point map's (N − L)/N.
func (m *model) g(l float64) float64 { return (m.nTotal - l) / m.nTotal }

// fixedPoint solves s = g(L(s)) for the effective-rate scale of eq. 7.
// h(s) = s − g(L(s)) is strictly increasing (L is increasing in s),
// h(0) < 0 and h(1) >= 0, so a unique root exists in (0, 1]. It also
// reports whether the raw rates (s = 1) saturate the system.
//
// The answer is a 40-step bisection's on [0, 1], bit for bit, and iters
// counts those steps, but few of them evaluate L: bracket first finds
// evaluated points a < b around the root, and the bisection then
// evaluates only the midpoints within margin of [a, b]. Every other
// midpoint's computed sign is the sign at the bracket end on its side
// (DESIGN.md §7).
func (m *model) fixedPoint(ql queueLen) (scale float64, iters int, saturated bool) {
	l1, lu1, finite1 := m.eval(1, ql)
	saturated = l1 >= m.nTotal
	if h := 1 - m.g(l1); h <= 0 {
		// No blocking pressure at all: the raw rate is the fixed point.
		return 1, 1, saturated
	}
	a, b := m.bracket(ql, l1, lu1, finite1)
	margin := m.replayMargin(ql)
	lo, hi, n := 0.0, 1.0, 0
	for ; hi-lo > 1e-12 && n < 200; n++ {
		mid := (lo + hi) / 2
		below := mid <= a-margin
		if !below && !(mid >= b+margin) {
			l, _, _ := m.eval(mid, ql)
			below = mid-m.g(l) < 0
		}
		if below {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, n, saturated
}

// bracket returns evaluated points a < b with h(a) < 0 <= h(b), b − a at
// most about 1e-13 unless it ran out of steps. Every rate is linear in s,
// so the saturation edge s* = min μ/λ(1) comes from the rates the s = 1
// probe left in the runs. On [0, s*) h is increasing and convex with a
// pole at s*, so the steps interpolate on φ(s) = (s* − s)·h(s), which has
// h's sign there but no pole: a secant step through the last two points
// while it stays inside the bracket, else an Illinois step (regula falsi
// on the bracket, with the value at an end that holds twice in a row
// halved). l1, lu1 and finite1 are eval(1)'s.
func (m *model) bracket(ql queueLen, l1, lu1 float64, finite1 bool) (a, b float64) {
	const width, steps = 1e-13, 24
	sp, poles := math.Inf(1), 0
	edge := func(lambda, mu float64, count int) {
		switch s := mu / lambda; {
		case s < sp:
			sp, poles = s, count
		case s == sp:
			poles += count
		}
	}
	for i := range m.runs {
		r := &m.runs[i]
		edge(r.lamI1, r.muI1, r.count)
		edge(r.lamE1, r.muE1, r.count)
	}
	edge(m.lamI2, m.muICN2, 1)
	if !(sp > 0 && sp < math.Inf(1)) {
		return 0, 1
	}
	// φ(0) = −s* since h(0) = −1. When s* <= 1 the interpolation's right
	// end starts at the pole, where φ is h's residue: pole() per
	// saturating centre, times s*/N. hb is the least evaluated point with
	// h >= 0, the right end handed to the replay.
	n := m.nTotal
	a, fa := 0.0, -sp
	b, hb := 1.0, 1.0
	var fb, x float64
	if sp <= 1 || !finite1 {
		// Start from the root with the bottleneck centre alone.
		b = min(b, sp)
		fb = float64(poles) * ql.pole() * sp / n
		x = sp * (1 - 1/(n*(1-sp)+2))
	} else {
		// Start one fixed-point step from 1.
		fb = (sp - 1) * (1 - m.g(lu1))
		x = m.g(l1)
	}
	side := 0
	xp, fp := math.NaN(), math.NaN()
	for k := 0; hb-a > width && k < steps; k++ {
		// A step that would land within width/2 of an end lands there
		// instead, so an end that sits on the root closes the bracket.
		x = min(max(x, a+width/2), b-width/2)
		if !(x > a && x < b) {
			x = a + (b-a)/2
		}
		l, lu, finite := m.eval(x, ql)
		f := math.NaN() // φ(x), unknown where a centre saturates
		if finite {
			f = (sp - x) * (x - m.g(lu))
		}
		if x-m.g(l) < 0 {
			a, fa = x, f
			if side < 0 {
				fb /= 2
			}
			side = -1
		} else {
			b, hb = x, x
			if finite {
				fb = f
			}
			if side > 0 {
				fa /= 2
			}
			side = 1
		}
		sec := x - f*(x-xp)/(f-fp)
		xp, fp = x, f
		x = b - fb*(b-a)/(fb-fa)
		if sec > a && sec < b {
			x = sec
		}
	}
	return a, hb
}

// replayMargin returns how far outside an evaluated bracket [a, b] a
// bisection midpoint must lie for the bracket to decide its computed sign.
//
// Rounding is monotone, so every computed rate, queue length, sum and
// clamp is a nondecreasing function of s, and the computed g(L(s)) a
// nonincreasing one, except where core.RateTerms.At subtracts a cluster's
// own generated traffic from the total to get its inbound ECN1 rate. So
// with the locality split, which adds only, a midpoint below a has h < 0
// and one above b has h >= 0 outright. Otherwise the difference is
// monotone between two points more than 2(C+5)u·T/(T − Nᵢλᵢ) apart
// (T = Σ Nⱼλⱼ, u the unit roundoff): beyond that the true growth of the
// other clusters' traffic outweighs both points' rounding. A single
// cluster has no other traffic, and its inbound rate is rounding noise
// of at most ρmax in utilisation; its queue length then moves against s
// by at most L(ρmax), which is worth that much over N in h. A margin of
// +Inf (a rate far outside what these bounds cover) evaluates every
// midpoint.
func (m *model) replayMargin(ql queueLen) float64 {
	const u = 0x1p-53
	if m.locality {
		return 0
	}
	c := float64(m.clusters)
	t := 0.0
	for i := range m.runs {
		t += float64(m.runs[i].count) * m.runs[i].NLambda
	}
	if m.clusters == 1 {
		r := &m.runs[0]
		rhoMax := 4.3 * u * t * r.N / (m.nTotal - 1) / r.muE1
		if !(rhoMax <= 0.5) {
			return math.Inf(1)
		}
		// L(ρ)/ρ <= 1 + pole() for ρ <= 1/2.
		return 2.2*(1+ql.pole())*rhoMax/m.nTotal + 16*u
	}
	kappa := 0.0
	for i := range m.runs {
		d := t - m.runs[i].NLambda
		if !(d > 10*(c+1)*u*t) {
			return math.Inf(1)
		}
		kappa = max(kappa, 2.5*(c+5)*u*t/d)
	}
	return kappa + 4*u
}

// solve finds the effective-rate fixed point with queue lengths ql and
// evaluates every centre there, once per run, into res, whose Centers
// storage it reuses. Centers is laid out as [ICN1₀, ECN1₀, ICN1₁, ECN1₁,
// …, ICN2], which the latency sums read by position. The caller fills in
// P and MeanLatency.
func (m *model) solve(res *Result, ql queueLen) error {
	*res = Result{Centers: res.Centers[:0], runs: m.runs}
	res.Scale, res.Iterations, res.Saturated = m.fixedPoint(ql)
	m.load(res.Scale, ql)

	eval := func(kind CenterKind, lambda, mu float64) (CenterMetrics, error) {
		// The bisection can land within tolerance of a saturation
		// boundary; nudge just below it so the formulas stay finite.
		if !(lambda < mu) {
			lambda = mu * (1 - 1e-9)
		}
		rho, w, l, err := ql.station(lambda, mu)
		return CenterMetrics{Kind: kind, Cluster: -1, Lambda: lambda, Mu: mu,
			Rho: rho, W: w, L: l}, err
	}
	res.Centers = slices.Grow(res.Centers, 2*m.clusters+1)
	for i := range m.runs {
		r := &m.runs[i]
		cI, errI := eval(ICN1, r.lamI1, r.muI1)
		cE, errE := eval(ECN1, r.lamE1, r.muE1)
		if err := cmp.Or(errI, errE); err != nil {
			return err
		}
		for range r.count {
			cI.Cluster = len(res.Centers) / 2
			cE.Cluster = cI.Cluster
			res.Centers = append(res.Centers, cI, cE)
		}
	}
	c, err := eval(ICN2, m.lamI2, m.muICN2)
	if err != nil {
		return err
	}
	res.Centers = append(res.Centers, c)
	for i := range res.Centers {
		res.TotalWaiting += res.Centers[i].L
	}
	return nil
}

// Analyze evaluates the paper's analytical model for the configuration and
// returns the mean message latency and per-centre metrics in O(C) time; a
// bisection step divides once per run of equal clusters, not per cluster.
func Analyze(cfg *core.Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &Result{}
	if err := analyze(res, cfg, queueLen{}); err != nil {
		return nil, err
	}
	return res, nil
}

// AnalyzeInto evaluates into res the model UsesArrivalCorrection selects
// for arrivalSCV: AnalyzeArrival's G/G/1 correction, or else Analyze's
// M/M/1 model, with bit-identical results. Every field of res is
// overwritten, and the storage behind its Centers is reused, so a caller
// analysing many configurations in turn through one Result allocates
// nothing once that storage has grown to the largest. Like Analyze it
// validates its input; on error res holds no meaningful result.
func AnalyzeInto(res *Result, cfg *core.Config, arrivalSCV float64) error {
	if UsesArrivalCorrection(arrivalSCV) {
		if err := checkArrivalSCV(arrivalSCV); err != nil {
			return err
		}
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	return AnalyzeValidInto(res, cfg, arrivalSCV)
}

// AnalyzeValidInto is AnalyzeInto for a configuration that passed
// cfg.Validate and has not changed since, such as the capacity planner's
// enumerated candidates: it skips the second validation.
func AnalyzeValidInto(res *Result, cfg *core.Config, arrivalSCV float64) error {
	if UsesArrivalCorrection(arrivalSCV) {
		if err := checkArrivalSCV(arrivalSCV); err != nil {
			return err
		}
		return analyze(res, cfg, queueLen{mg1: true, scv: arrivalSCV})
	}
	return analyze(res, cfg, queueLen{})
}

// analyze solves a validated configuration with queue lengths ql into
// res, and evaluates eq. 15 at the fixed point. It is the one solve path
// behind every eq. 15 entry point.
func analyze(res *Result, cfg *core.Config, ql queueLen) error {
	m, err := newModel(cfg, res.runs)
	if err != nil {
		return err
	}
	if err := m.solve(res, ql); err != nil {
		return err
	}
	res.P = cfg.POut(0)
	res.MeanLatency = meanLatency(cfg, res)
	return nil
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
