package plan

import (
	"fmt"
	"sort"
	"strings"

	"hmscs/internal/core"
	"hmscs/internal/network"
)

// CostModel prices a configuration in abstract "node units": processors at
// NodeCost each, plus every switch port of every communication network at
// a per-technology port price. Port counts come from the same topology
// construction the analytic model uses (fat-tree or linear array per
// centre), so a non-blocking fabric's extra stages are priced, not just
// its endpoints.
type CostModel struct {
	// NodeCost prices one processor.
	NodeCost float64
	// PortCost prices one switch port, by technology name.
	PortCost map[string]float64
	// DefaultPortCost prices ports of technologies absent from PortCost.
	DefaultPortCost float64
}

// DefaultCostModel prices processors at 1 node unit and ports at rough
// relative street prices of the built-in technologies (a faster link costs
// more per port). The absolute scale is irrelevant to the frontier; only
// the ratios move candidates between frontier and interior.
func DefaultCostModel() CostModel {
	return CostModel{
		NodeCost: 1,
		PortCost: map[string]float64{
			network.FastEthernet.Name:    0.02,
			network.GigabitEthernet.Name: 0.10,
			network.Myrinet.Name:         0.60,
			network.Infiniband.Name:      1.50,
		},
		DefaultPortCost: 0.25,
	}
}

// Validate checks the model's prices.
func (m CostModel) Validate() error {
	if !(m.NodeCost >= 0) {
		return fmt.Errorf("plan: node cost %g must be non-negative", m.NodeCost)
	}
	if !(m.DefaultPortCost >= 0) {
		return fmt.Errorf("plan: default port cost %g must be non-negative", m.DefaultPortCost)
	}
	for name, c := range m.PortCost {
		if !(c >= 0) {
			return fmt.Errorf("plan: port cost %g for %s must be non-negative", c, name)
		}
	}
	return nil
}

// portCost resolves one technology's per-port price.
func (m CostModel) portCost(t network.Technology) float64 {
	if c, ok := m.PortCost[t.Name]; ok {
		return c
	}
	return m.DefaultPortCost
}

// Cost prices a configuration: NodeCost·N_T plus, for each ICN1, ECN1 and
// the ICN2, switches(topology)·Ports ports at the technology's price. A
// run of clusters built alike shares its topologies and their prices
// (core.Config.EachClusterModels), so a homogeneous layout prices three
// topologies, and Cost allocates nothing.
func (m CostModel) Cost(cfg *core.Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	return m.cost(cfg)
}

// cost is Cost for a validated configuration. Each cluster still adds its
// own two terms, in cluster order, so the sum is bit-identical to pricing
// every centre separately.
func (m CostModel) cost(cfg *core.Config) (float64, error) {
	total := m.NodeCost * float64(cfg.TotalNodes())
	ports := float64(cfg.Switch.Ports)
	icn2, err := cfg.EachClusterModels(func(i, n int, icn1, ecn1 network.Model) {
		pI := float64(icn1.Switches()) * ports * m.portCost(cfg.Clusters[i].ICN1)
		pE := float64(ecn1.Switches()) * ports * m.portCost(cfg.Clusters[i].ECN1)
		for range n {
			total += pI
			total += pE
		}
	})
	if err != nil {
		return 0, err
	}
	total += float64(icn2.Switches()) * ports * m.portCost(cfg.ICN2)
	return total, nil
}

// String renders the model for report headers, with port prices in a
// deterministic name order.
func (m CostModel) String() string {
	names := make([]string, 0, len(m.PortCost))
	for name := range m.PortCost {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%g", shortTech(network.Technology{Name: name}), m.PortCost[name]))
	}
	return fmt.Sprintf("node %g, port %s (other %g)", m.NodeCost, strings.Join(parts, " "), m.DefaultPortCost)
}
