package run

import (
	"hmscs/internal/scenario"
	"hmscs/internal/sim"
)

// ScenarioOutcome is the dynamic (timeline) side of a simulate or netsim
// outcome: the across-replication transient analysis over the scenario
// horizon, the recovery metric, and the failure-policy counters.
type ScenarioOutcome struct {
	// Spec is the normalized scenario section that ran.
	Spec *scenario.Spec
	// Transient is the replication set's fold over the timeline's window
	// (series, recovery, policy counters), as sim.RunBatchCtx returns it.
	*sim.Transient
}
