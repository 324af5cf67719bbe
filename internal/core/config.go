// Package core describes Heterogeneous Multi-Stage Clustered Structure
// (HMSCS) systems — the paper's Figure 1 — and derives the traffic
// quantities (out-of-cluster probability, per-centre arrival rates,
// endpoint counts) shared by the analytical model and the simulator.
//
// A system has C clusters; cluster i has Nᵢ processors, each generating
// messages at rate λᵢ with uniformly random destinations. Every cluster has
// an intra-communication network (ICN1ᵢ) and an inter-communication network
// (ECN1ᵢ); a single second-stage network (ICN2) connects the clusters.
// The paper analyses the homogeneous Super-Cluster case (all Nᵢ and λᵢ
// equal); the heterogeneous generalisation here is the paper's stated
// future work (Cluster-of-Clusters).
package core

import (
	"fmt"
	"slices"

	"hmscs/internal/network"
)

// Cluster describes one cluster of an HMSCS system.
type Cluster struct {
	// Nodes is the number of processors in the cluster (N0 in the paper).
	Nodes int
	// Lambda is the per-processor message generation rate in msg/second
	// while the processor is active (assumption 1).
	Lambda float64
	// ICN1 is the technology of the intra-communication network.
	ICN1 network.Technology
	// ECN1 is the technology of the inter-communication network.
	ECN1 network.Technology
}

// Config is a complete HMSCS system description.
type Config struct {
	// Clusters lists every cluster. The paper's Super-Cluster case uses C
	// identical entries.
	Clusters []Cluster
	// ICN2 is the technology of the second-stage network joining clusters.
	ICN2 network.Technology
	// Arch selects blocking or non-blocking interconnects (paper §5) for
	// all networks in the system.
	Arch network.Architecture
	// Switch holds the switch-fabric parameters (Pr ports, α_sw latency)
	// shared by all networks, per Table 2.
	Switch network.Switch
	// MessageBytes is the fixed message length M (assumption 6).
	MessageBytes int
}

// Clone returns a deep copy of the configuration; a nil configuration
// clones to nil.
func (c *Config) Clone() *Config {
	if c == nil {
		return nil
	}
	d := *c
	d.Clusters = slices.Clone(c.Clusters)
	return &d
}

// Validate checks the configuration for structural errors.
func (c *Config) Validate() error {
	if len(c.Clusters) == 0 {
		return fmt.Errorf("core: system needs at least one cluster")
	}
	for i := range c.Clusters {
		cl := &c.Clusters[i]
		if cl.Nodes < 1 {
			return fmt.Errorf("core: cluster %d has %d nodes", i, cl.Nodes)
		}
		if !(cl.Lambda > 0) {
			return fmt.Errorf("core: cluster %d lambda %g must be positive", i, cl.Lambda)
		}
		if err := cl.ICN1.Validate(); err != nil {
			return fmt.Errorf("core: cluster %d ICN1: %w", i, err)
		}
		if err := cl.ECN1.Validate(); err != nil {
			return fmt.Errorf("core: cluster %d ECN1: %w", i, err)
		}
	}
	if err := c.ICN2.Validate(); err != nil {
		return fmt.Errorf("core: ICN2: %w", err)
	}
	if err := c.Switch.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.MessageBytes < 1 {
		return fmt.Errorf("core: message size %d must be at least 1 byte", c.MessageBytes)
	}
	if c.TotalNodes() < 2 {
		return fmt.Errorf("core: system needs at least 2 processors for any traffic")
	}
	if c.Arch != network.Blocking && c.Arch != network.NonBlocking {
		return fmt.Errorf("core: unknown architecture %v", c.Arch)
	}
	return nil
}

// TotalNodes returns the total processor count across clusters.
func (c *Config) TotalNodes() int {
	n := 0
	for i := range c.Clusters {
		n += c.Clusters[i].Nodes
	}
	return n
}

// NumClusters returns C.
func (c *Config) NumClusters() int { return len(c.Clusters) }

// Homogeneous reports whether all clusters are identical (the paper's
// assumption 5), which enables the symmetric fast path in the analytic
// model and simulator.
func (c *Config) Homogeneous() bool { return c.Runs() <= 1 }

// Runs returns the number of runs of consecutive identical clusters.
func (c *Config) Runs() int {
	n := min(len(c.Clusters), 1)
	for i := 1; i < len(c.Clusters); i++ {
		if c.Clusters[i] != c.Clusters[i-1] {
			n++
		}
	}
	return n
}

// POut returns the probability that a message from cluster i leaves the
// cluster. For the homogeneous case this is the paper's eq. (8):
// P = (C−1)·N0 / (C·N0 − 1); the per-cluster form generalises it to
// heterogeneous sizes: Pᵢ = (N_T − Nᵢ) / (N_T − 1).
func (c *Config) POut(i int) float64 {
	return c.Clusters[i].POutOf(c.TotalNodes())
}

// POutOf is POut for a cluster in a system of nt processors in total, so a
// loop over clusters sums N_T once instead of once per cluster.
func (cl *Cluster) POutOf(nt int) float64 {
	if nt <= 1 {
		return 0
	}
	return float64(nt-cl.Nodes) / float64(nt-1)
}

// String summarises the configuration for logs and reports.
func (c *Config) String() string {
	if c.Homogeneous() && len(c.Clusters) > 0 {
		cl := c.Clusters[0]
		return fmt.Sprintf("HMSCS{C=%d, N0=%d, %s, M=%dB, ICN1=%s, ECN=%s/%s, λ=%g/s}",
			len(c.Clusters), cl.Nodes, c.Arch, c.MessageBytes,
			cl.ICN1.Name, cl.ECN1.Name, c.ICN2.Name, cl.Lambda)
	}
	return fmt.Sprintf("HMSCS{C=%d (heterogeneous), N=%d, %s, M=%dB}",
		len(c.Clusters), c.TotalNodes(), c.Arch, c.MessageBytes)
}
