package core

import (
	"fmt"

	"hmscs/internal/network"
	"hmscs/internal/queueing"
)

// Centers holds the per-service-centre network models of a system: one ICN1
// and one ECN1 per cluster plus the global ICN2, mirroring the paper's
// Figure 2 queueing model.
type Centers struct {
	ICN1 []*network.Model // per cluster, Nᵢ endpoints
	ECN1 []*network.Model // per cluster, Nᵢ+1 endpoints (processors + ICN2 uplink)
	ICN2 *network.Model   // C endpoints (one per cluster)
}

// BuildCenters constructs the communication-network model behind every
// service centre.
func (c *Config) BuildCenters() (*Centers, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := len(c.Clusters)
	out := &Centers{ICN1: make([]*network.Model, n), ECN1: make([]*network.Model, n)}
	// One slab holds every model: [ICN1₀, ECN1₀, …, ICN2].
	models := make([]network.Model, 2*n+1)
	for i := range c.Clusters {
		var err error
		if models[2*i], models[2*i+1], err = c.clusterModels(i); err != nil {
			return nil, err
		}
		out.ICN1[i], out.ECN1[i] = &models[2*i], &models[2*i+1]
	}
	var err error
	if models[2*n], err = c.icn2Model(); err != nil {
		return nil, err
	}
	out.ICN2 = &models[2*n]
	return out, nil
}

// clusterModels builds the network models of cluster i's ICN1 and ECN1.
func (c *Config) clusterModels(i int) (icn1, ecn1 network.Model, err error) {
	cl := &c.Clusters[i]
	icn1, err = network.NewModel(cl.ICN1, c.Arch, c.Switch, cl.Nodes)
	if err != nil {
		return icn1, ecn1, fmt.Errorf("core: cluster %d ICN1: %w", i, err)
	}
	// ECN1 carries the cluster's processors plus the uplink toward ICN2.
	ecn1, err = network.NewModel(cl.ECN1, c.Arch, c.Switch, cl.Nodes+1)
	if err != nil {
		return icn1, ecn1, fmt.Errorf("core: cluster %d ECN1: %w", i, err)
	}
	return icn1, ecn1, nil
}

// icn2Model builds the network model of the second-stage network.
func (c *Config) icn2Model() (network.Model, error) {
	m, err := network.NewModel(c.ICN2, c.Arch, c.Switch, len(c.Clusters))
	if err != nil {
		return m, fmt.Errorf("core: ICN2: %w", err)
	}
	return m, nil
}

// ServiceTimes returns the mean service time of each centre for the
// configured message size.
func (ct *Centers) ServiceTimes(msgBytes int) (icn1, ecn1 []float64, icn2 float64) {
	icn1 = make([]float64, len(ct.ICN1))
	ecn1 = make([]float64, len(ct.ECN1))
	for i := range ct.ICN1 {
		icn1[i] = ct.ICN1[i].MeanServiceTime(msgBytes)
		ecn1[i] = ct.ECN1[i].MeanServiceTime(msgBytes)
	}
	return icn1, ecn1, ct.ICN2.MeanServiceTime(msgBytes)
}

// EachClusterModels calls fn(i, n, icn1, ecn1) once per run of n
// consecutive clusters, starting at cluster i, whose sizes and
// technologies are equal (so their networks are built alike), with the
// network models the run shares, in cluster order; it returns ICN2's
// model. A run of identical clusters thus costs one pair of models, and
// the models are values, so the walk allocates nothing. It does not
// validate the configuration; a model that fails to build is reported as
// the cluster and network it belongs to.
func (c *Config) EachClusterModels(fn func(i, n int, icn1, ecn1 network.Model)) (network.Model, error) {
	for i := 0; i < len(c.Clusters); {
		n := 1
		for i+n < len(c.Clusters) && c.Clusters[i+n].sameNetworks(&c.Clusters[i+n-1]) {
			n++
		}
		mI1, mE1, err := c.clusterModels(i)
		if err != nil {
			return network.Model{}, err
		}
		fn(i, n, mI1, mE1)
		i += n
	}
	return c.icn2Model()
}

// sameNetworks reports whether cl's ICN1 and ECN1 are built exactly like
// prev's: the same node count and technologies.
func (cl *Cluster) sameNetworks(prev *Cluster) bool {
	return cl.Nodes == prev.Nodes && cl.ICN1 == prev.ICN1 && cl.ECN1 == prev.ECN1
}

// Rates holds the per-centre total arrival rates of the Jackson model
// (paper eq. 1–5, generalised to heterogeneous clusters).
type Rates struct {
	ICN1 []float64 // λ_I1 per cluster
	ECN1 []float64 // λ_E1 per cluster (outbound + inbound flows)
	ICN2 float64   // λ_I2
}

// ArrivalRates computes the per-centre arrival rates when every processor's
// generation rate is scaled by the given factor (1 for the raw rates; the
// effective-rate iteration of eq. 7 passes scale < 1). It costs O(C).
//
// For homogeneous systems these reduce exactly to the paper's eq. 1–5:
// λ_I1 = N0(1−P)λ, λ_E1 = 2N0Pλ, λ_I2 = C·N0·P·λ.
func (c *Config) ArrivalRates(scale float64) Rates {
	n := len(c.Clusters)
	r := Rates{ICN1: make([]float64, n), ECN1: make([]float64, n)}
	nt := c.TotalNodes()
	if nt <= 1 {
		return r
	}
	// Total generated traffic, so the per-cluster inbound sum is O(1):
	// Σ_{j≠i} Nⱼλⱼ = total − Nᵢλᵢ.
	totalGen := 0.0
	for i := range c.Clusters {
		cl := &c.Clusters[i]
		totalGen += float64(cl.Nodes) * cl.Lambda * scale
	}
	for i := range c.Clusters {
		t := c.Clusters[i].RateTerms(nt)
		var outbound float64
		r.ICN1[i], r.ECN1[i], outbound = t.At(scale, totalGen, float64(nt-1))
		r.ICN2 += outbound
	}
	return r
}

// RateTerms holds the scale-invariant terms of one cluster's arrival rates
// (eq. 1–5) in a system of N_T processors.
type RateTerms struct {
	N, Lambda       float64 // Nᵢ and λᵢ
	NLambda, NLocal float64 // Nᵢλᵢ and Nᵢ(1−Pᵢ)
	P               float64 // Pᵢ of eq. 8
}

// RateTerms returns cl's rate terms in a system of nt processors.
func (cl *Cluster) RateTerms(nt int) RateTerms {
	n, p := float64(cl.Nodes), cl.POutOf(nt)
	return RateTerms{N: n, Lambda: cl.Lambda, NLambda: n * cl.Lambda, NLocal: n * (1 - p), P: p}
}

// At returns the cluster's λ_I1, λ_E1 and outbound remote rate (its share
// of λ_I2) at generation-rate scale s, where totalGen is Σⱼ Nⱼλⱼs summed
// in cluster order and ntm1 is N_T−1.
func (t *RateTerms) At(s, totalGen, ntm1 float64) (icn1, ecn1, outbound float64) {
	li := t.Lambda * s
	gen := t.N * li
	outbound = gen * t.P
	// Inbound remote traffic: each of the other clusters' processors
	// addresses this cluster with probability Nᵢ/(N_T − 1). With one cluster
	// the difference can round just below its true value, zero.
	inbound := max(0, (totalGen-gen)*t.N/ntm1)
	return t.NLocal * li, outbound + inbound, outbound
}

// TrafficWeight returns cluster i's share of generated traffic,
// Nᵢλᵢ / Σⱼ Nⱼλⱼ, used to average per-source-cluster latencies.
func (c *Config) TrafficWeight(i int) float64 {
	return c.Clusters[i].TrafficWeightOf(c.TotalTraffic())
}

// TotalTraffic returns the generated traffic Σⱼ Nⱼλⱼ, summed in cluster
// order.
func (c *Config) TotalTraffic() float64 {
	total := 0.0
	for i := range c.Clusters {
		cl := &c.Clusters[i]
		total += float64(cl.Nodes) * cl.Lambda
	}
	return total
}

// TrafficWeightOf is TrafficWeight for a cluster of a system whose
// TotalTraffic is total, so a loop over clusters sums it once.
func (cl *Cluster) TrafficWeightOf(total float64) float64 {
	if total == 0 {
		return 0
	}
	return float64(cl.Nodes) * cl.Lambda / total
}

// MVAStations maps the homogeneous system onto the closed-network stations
// used by the exact MVA cross-check: every physical queue becomes a station
// and, by symmetry, a random customer visits each cluster's ICN1 with
// probability (1−P)/C, each ECN1 with probability 2P/C, and ICN2 with
// probability P per generated message. The think time is 1/λ.
//
// MVA is single-class, so this mapping requires a homogeneous system.
func (c *Config) MVAStations() ([]queueing.MVAStation, float64, error) {
	if !c.Homogeneous() {
		return nil, 0, fmt.Errorf("core: MVA cross-check requires a homogeneous system")
	}
	centers, err := c.BuildCenters()
	if err != nil {
		return nil, 0, err
	}
	icn1, ecn1, icn2 := centers.ServiceTimes(c.MessageBytes)
	p := c.POut(0)
	cc := float64(len(c.Clusters))
	stations := make([]queueing.MVAStation, 0, 2*len(c.Clusters)+1)
	for i := range c.Clusters {
		stations = append(stations, queueing.MVAStation{
			Name:        fmt.Sprintf("ICN1[%d]", i),
			VisitRatio:  (1 - p) / cc,
			ServiceTime: icn1[i],
		})
		stations = append(stations, queueing.MVAStation{
			Name:        fmt.Sprintf("ECN1[%d]", i),
			VisitRatio:  2 * p / cc,
			ServiceTime: ecn1[i],
		})
	}
	stations = append(stations, queueing.MVAStation{
		Name:        "ICN2",
		VisitRatio:  p,
		ServiceTime: icn2,
	})
	think := 1 / c.Clusters[0].Lambda
	return stations, think, nil
}
