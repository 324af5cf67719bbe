package scenario_test

import (
	"testing"

	"hmscs/internal/core"
	"hmscs/internal/netsim"
	"hmscs/internal/network"
	"hmscs/internal/rng"
	"hmscs/internal/scenario"
	"hmscs/internal/sim"
	"hmscs/internal/workload"
)

// fuzzHorizon is the simulated span of every fuzzed timeline, in seconds.
const fuzzHorizon = 0.05

// fuzzTargets is the target vocabulary a fuzzed event draws from: every
// kind either engine resolves, so a timeline can be valid for one engine
// and rejected by the other.
var fuzzTargets = []string{"node", "cluster", "cluster:largest", "icn1", "ecn1", "icn2", "switch", "spine"}

var fuzzPolicies = []string{"", "drop", "requeue", "reroute"}

// decodeTimeline turns fuzz bytes into a scenario spec and run knobs. The
// first byte picks deterministic service (bit 0), periodic arrivals
// (bit 1), a flash-crowd profile (bit 2) and open-loop cluster sources
// (bit 3); the second, when its top bit is set, names one target down at
// time zero. Every further three bytes are one event: a time in
// (0, horizon], an action and target kind, and an index and policy.
func decodeTimeline(data []byte) (spec *scenario.Spec, flags byte) {
	spec = &scenario.Spec{HorizonS: fuzzHorizon, SLOLatencyMS: 1}
	target := func(kind, idx byte) string {
		t := fuzzTargets[int(kind)%len(fuzzTargets)]
		switch t {
		case "cluster:largest", "icn2":
			return t
		}
		return t + ":" + string(rune('0'+idx%8))
	}
	if len(data) > 0 {
		flags = data[0]
		data = data[1:]
	}
	if flags&4 != 0 {
		spec.Profile = &scenario.ProfileSpec{Kind: "flash", PeakFactor: 3,
			StartS: fuzzHorizon / 4, RampS: fuzzHorizon / 10, HoldS: fuzzHorizon / 4}
	}
	if len(data) > 0 {
		if data[0]&0x80 != 0 {
			spec.InitialDown = []string{target(data[0]>>4, data[0])}
		}
		data = data[1:]
	}
	for ; len(data) >= 3; data = data[3:] {
		action := scenario.ActionRepair
		if data[1]&0x80 != 0 {
			action = scenario.ActionFail
		}
		spec.Events = append(spec.Events, scenario.Event{
			TS:     fuzzHorizon * float64(int(data[0])+1) / 256,
			Action: action,
			Target: target(data[1], data[2]),
			Policy: fuzzPolicies[data[2]>>6],
		})
	}
	spec.Normalize()
	return spec, flags
}

// fuzzEvent encodes one event for the seed corpus.
func fuzzEvent(t byte, fail bool, kind, idx, policy byte) []byte {
	b1 := kind
	if fail {
		b1 |= 0x80
	}
	return []byte{t, b1, idx | policy<<6}
}

// FuzzScenarioCompile compiles fuzzed timelines against a small
// heterogeneous cluster system, a fat-tree and a linear array. Whatever
// compiles must run one replication of its engine to the horizon without
// panicking, and a cluster run must account for every measured or
// dropped message as generated.
func FuzzScenarioCompile(f *testing.F) {
	seed := func(flags byte, down byte, events ...[]byte) []byte {
		b := []byte{flags, down}
		for _, e := range events {
			b = append(b, e...)
		}
		return b
	}
	// Kinds index fuzzTargets: node 0, cluster 1, cluster:largest 2,
	// icn1 3, ecn1 4, icn2 5, switch 6, spine 7. Policies index
	// fuzzPolicies: none 0, drop 1, requeue 2, reroute 3.
	f.Add(seed(0, 0, fuzzEvent(60, true, 2, 0, 1), fuzzEvent(120, false, 2, 0, 0)))
	f.Add(seed(1, 0, fuzzEvent(60, true, 3, 0, 3), fuzzEvent(120, false, 3, 0, 0)))
	f.Add(seed(3, 0, fuzzEvent(30, true, 0, 2, 0), fuzzEvent(40, true, 5, 0, 2),
		fuzzEvent(90, false, 0, 2, 0), fuzzEvent(200, false, 5, 0, 0)))
	f.Add(seed(5, 0x80|1<<4|1, fuzzEvent(100, false, 1, 1, 0), fuzzEvent(150, true, 4, 0, 1)))
	f.Add(seed(9, 0, fuzzEvent(10, true, 0, 1, 0), fuzzEvent(20, false, 0, 1, 0),
		fuzzEvent(30, true, 0, 1, 0), fuzzEvent(255, false, 0, 1, 0)))
	f.Add(seed(1, 0, fuzzEvent(50, true, 7, 0, 1), fuzzEvent(80, true, 6, 1, 2),
		fuzzEvent(110, false, 7, 0, 0), fuzzEvent(140, false, 6, 1, 0)))
	f.Add(seed(6, 0x80|6<<4|1, fuzzEvent(64, true, 0, 3, 0), fuzzEvent(128, false, 6, 1, 0)))

	sw := network.Switch{Ports: 4, Latency: 10e-6}
	cfg := &core.Config{
		Clusters: []core.Cluster{
			{Nodes: 3, Lambda: 1000, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
			{Nodes: 5, Lambda: 700, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
			{Nodes: 4, Lambda: 1000, ICN1: network.FastEthernet, ECN1: network.FastEthernet},
		},
		ICN2:         network.FastEthernet,
		Arch:         network.NonBlocking,
		Switch:       network.Switch{Ports: 8, Latency: 10e-6},
		MessageBytes: 512,
	}
	if err := cfg.Validate(); err != nil {
		f.Fatal(err)
	}
	fatTree, err := netsim.BuildFatTree(8, 4, network.GigabitEthernet, sw)
	if err != nil {
		f.Fatal(err)
	}
	linear, err := netsim.BuildLinearArray(8, 4, network.GigabitEthernet, sw)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, flags := decodeTimeline(data)
		var dist rng.Dist = rng.Exponential{MeanValue: 1}
		if flags&1 != 0 {
			dist = rng.Deterministic{Value: 1}
		}
		var arrival workload.Arrival = workload.Poisson{}
		if flags&2 != 0 {
			arrival = workload.Periodic{}
		}

		if cs, err := scenario.CompileSim(spec, cfg); err == nil {
			opts := sim.DefaultOptions()
			opts.Seed = uint64(len(data))
			opts.ServiceDist = dist
			opts.Arrival = arrival
			opts.OpenLoop = flags&8 != 0
			opts.Scenario = cs
			res, err := sim.Run(cfg, opts)
			if err != nil {
				t.Fatalf("sim: compiled timeline %+v failed to run: %v", spec, err)
			}
			if res.SimTime != fuzzHorizon {
				t.Fatalf("sim: run stopped at %v, want the horizon %v", res.SimTime, fuzzHorizon)
			}
			if res.Generated < res.Measured+res.Dropped {
				t.Fatalf("sim: generated %d < measured %d + dropped %d for %+v",
					res.Generated, res.Measured, res.Dropped, spec)
			}
		}

		for _, n := range []*netsim.Network{fatTree, linear} {
			cn, err := scenario.CompileNet(spec, n.Topo())
			if err != nil {
				continue
			}
			if _, err := n.Run(5000, 4096, sim.Options{
				MeasuredMessages: 1, Seed: uint64(len(data)),
				ServiceDist: dist, Arrival: arrival, Scenario: cn,
			}); err != nil {
				t.Fatalf("netsim %s: compiled timeline %+v failed to run: %v", n.Kind, spec, err)
			}
		}
	})
}
