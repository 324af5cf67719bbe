package run

import (
	"fmt"
	"strconv"
	"strings"

	"hmscs/internal/network"
	"hmscs/internal/plan"
)

// BuildSpace returns the plan section's design space (Space, or the
// documented default space) with the Lambda and MsgBytes overrides
// applied to a copy, so the spec's own space is never modified.
func (p *PlanSpec) BuildSpace() (*plan.Space, error) {
	sp := plan.DefaultSpace()
	if p.Space != nil {
		sp = p.Space.Clone()
	}
	if p.Lambda != 0 {
		sp.Lambda = p.Lambda
	}
	if p.MsgBytes != 0 {
		sp.MessageBytes = p.MsgBytes
	}
	return sp, sp.Validate()
}

// BuildSLO converts the SLO fields (budget given in ms). The normalized
// spec already carries the utilisation cap, so an explicit 0 is a user
// error, not a request for the default.
func (p *PlanSpec) BuildSLO() (plan.SLO, error) {
	if !(p.SLOUtil > 0) || p.SLOUtil > 1 {
		return plan.SLO{}, fmt.Errorf("run: SLO utilisation cap %g must be in (0, 1]", p.SLOUtil)
	}
	slo := plan.SLO{MaxLatency: p.SLOLatencyMs * 1e-3, MaxUtil: p.SLOUtil, MinNodes: p.MinNodes, MaxRecovery: p.SLORecoveryS}.Normalized()
	return slo, slo.Validate()
}

// BuildCost assembles the cost model: the defaults with NodeCost and any
// PortCosts overrides applied.
func (p *PlanSpec) BuildCost() (plan.CostModel, error) {
	cm := plan.DefaultCostModel()
	cm.NodeCost = p.NodeCost
	if p.PortCosts != "" {
		for _, pair := range strings.Split(p.PortCosts, ",") {
			name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				return cm, fmt.Errorf("run: bad port cost %q (want tech=cost)", pair)
			}
			tech, err := techByAnyName(name)
			if err != nil {
				return cm, err
			}
			c, err := strconv.ParseFloat(val, 64)
			if err != nil || c < 0 {
				return cm, fmt.Errorf("run: bad port cost value %q in %q", val, pair)
			}
			cm.PortCost[tech] = c
		}
	}
	return cm, cm.Validate()
}

// techByAnyName resolves a technology alias ("FE", "GE", ...) to the
// canonical name the cost model is keyed on.
func techByAnyName(name string) (string, error) {
	t, err := network.TechnologyByName(strings.TrimSpace(name))
	if err != nil {
		return "", err
	}
	return t.Name, nil
}
