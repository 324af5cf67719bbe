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
	m, err := newModel(cfg, nil)
	if err != nil {
		return nil, err
	}
	// Effective per-run local probabilities: degenerate clusters force
	// the same fallbacks the simulator's LocalBias applies.
	m.locality = true
	for i := range m.runs {
		r := &m.runs[i]
		switch {
		case r.N == m.nTotal:
			r.pLocal = 1 // no remote node exists
		case r.N <= 1:
			r.pLocal = 0 // no other local node exists
		default:
			r.pLocal = locality
		}
	}
	res := &Result{}
	if err := m.solve(res, queueLen{}); err != nil {
		return nil, err
	}
	res.P = 1 - m.runs[0].pLocal

	// Mean latency under the locality split: local messages ride ICN1;
	// remote ones pay ECN1(src) + ICN2 + ECN1(dst), destination cluster
	// drawn by its share of the source's remote node pool. Centres are
	// read by position, [ICN1₀, ECN1₀, …, ICN2]; like the inbound rate,
	// the destination term is one sum per run.
	ctr := res.Centers
	traffic := cfg.TotalTraffic()
	total := 0.0
	i := 0
	for ri, r := range m.runs {
		destTerm, first := 0.0, 0
		for j, o := range m.runs {
			share, w := o.N/(m.nTotal-r.N), ctr[2*first+1].W
			for range o.count - btoi(j == ri) {
				destTerm += share * w
			}
			first += o.count
		}
		for range r.count {
			li := r.pLocal * ctr[2*i].W
			if remote := 1 - r.pLocal; remote > 0 {
				li += remote * (ctr[2*i+1].W + ctr[2*m.clusters].W + destTerm)
			}
			total += cfg.Clusters[i].TrafficWeightOf(traffic) * li
			i++
		}
	}
	res.MeanLatency = total
	return res, nil
}

// localityRates sets the runs' rates under AnalyzeLocality's split.
// Inside a run the skipped own-cluster term of the inbound sum equals its
// neighbours, so one sum per run adds the terms of one per cluster.
func (m *model) localityRates(s float64) (icn2 float64) {
	for i := range m.runs {
		r := &m.runs[i]
		gen := r.NLambda * s
		r.lamI1 = gen * r.pLocal
		out := gen * (1 - r.pLocal)
		r.out = out
		for range r.count {
			icn2 += out
		}
	}
	for i := range m.runs {
		r := &m.runs[i]
		inbound := 0.0
		for j, o := range m.runs {
			if o.N == m.nTotal {
				continue
			}
			share := r.N / (m.nTotal - o.N)
			for range o.count - btoi(j == i) {
				inbound += o.out * share
			}
		}
		r.lamE1 = r.out + inbound
	}
	return icn2
}

// btoi is 1 for true and 0 for false.
func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
