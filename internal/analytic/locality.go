package analytic

import (
	"fmt"

	"hmscs/internal/core"
)

// AnalyzeLocality generalises the model's uniform-destination assumption
// (eq. 8) to traffic with an explicit locality parameter: every message
// stays inside its source cluster with probability locality, matching the
// simulator's workload.LocalBias pattern. Remote destinations are uniform
// over the nodes outside the source cluster.
//
// locality = (Nᵢ−1)/(N_T−1) recovers the paper's uniform traffic; higher
// values model applications with communication locality — the regime where
// the paper observes blocking networks become viable (§5.3).
func AnalyzeLocality(cfg *core.Config, locality float64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if locality < 0 || locality > 1 {
		return nil, fmt.Errorf("analytic: locality %g outside [0,1]", locality)
	}
	m, err := newModel(cfg)
	if err != nil {
		return nil, err
	}
	nt := cfg.TotalNodes()
	c := cfg.NumClusters()

	// Effective per-cluster local probabilities: degenerate clusters force
	// the same fallbacks the simulator's LocalBias applies.
	pLocal := make([]float64, c)
	for i := range cfg.Clusters {
		cl := &cfg.Clusters[i]
		p := locality
		if cl.Nodes <= 1 {
			p = 0 // no other local node exists
		}
		if nt-cl.Nodes == 0 {
			p = 1 // no remote node exists
		}
		pLocal[i] = p
	}

	// The locality split routes traffic differently, so the model's rate
	// buffer is filled by this variant's own rate equations.
	outbound := make([]float64, c)
	m.fill = func(r *core.Rates, s float64) {
		r.ICN2 = 0
		for i := range cfg.Clusters {
			cl := &cfg.Clusters[i]
			gen := float64(cl.Nodes) * cl.Lambda * s
			r.ICN1[i] = gen * pLocal[i]
			outbound[i] = gen * (1 - pLocal[i])
			r.ICN2 += outbound[i]
		}
		for i := range cfg.Clusters {
			ni := cfg.Clusters[i].Nodes
			inbound := 0.0
			for j := range cfg.Clusters {
				nj := cfg.Clusters[j].Nodes
				if j == i || nt == nj {
					continue
				}
				share := float64(ni) / float64(nt-nj)
				inbound += outbound[j] * share
			}
			r.ECN1[i] = outbound[i] + inbound
		}
	}
	res, err := m.solve(mm1Len, mm1Station)
	if err != nil {
		return nil, err
	}
	res.P = 1 - pLocal[0]

	// Mean latency under the locality split: local messages ride ICN1;
	// remote ones pay ECN1(src) + ICN2 + ECN1(dst), destination cluster
	// drawn by its share of the source's remote node pool. Centres are
	// read by position, [ICN1₀, ECN1₀, …, ICN2].
	ctr := res.Centers
	wI2 := ctr[2*c].W
	traffic := cfg.TotalTraffic()
	total := 0.0
	for i := range cfg.Clusters {
		cl := &cfg.Clusters[i]
		wi := cl.TrafficWeightOf(traffic)
		li := pLocal[i] * ctr[2*i].W
		remote := 1 - pLocal[i]
		if remote > 0 {
			destTerm := 0.0
			for j := range cfg.Clusters {
				if j == i {
					continue
				}
				share := float64(cfg.Clusters[j].Nodes) / float64(nt-cl.Nodes)
				destTerm += share * ctr[2*j+1].W
			}
			li += remote * (ctr[2*i+1].W + wI2 + destTerm)
		}
		total += wi * li
	}
	res.MeanLatency = total
	return res, nil
}
