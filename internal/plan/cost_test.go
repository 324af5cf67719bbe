package plan

import (
	"math"
	"strings"
	"testing"

	"hmscs/internal/core"
	"hmscs/internal/network"
)

// referenceCost prices a configuration the straightforward way: build
// every centre's network model and sum its ports. Cost must match it bit
// for bit while building only the models of clusters unlike their
// predecessor.
func referenceCost(m CostModel, cfg *core.Config) (float64, error) {
	centers, err := cfg.BuildCenters()
	if err != nil {
		return 0, err
	}
	total := m.NodeCost * float64(cfg.TotalNodes())
	ports := float64(cfg.Switch.Ports)
	for i := range centers.ICN1 {
		total += float64(centers.ICN1[i].Topology().Switches()) * ports * m.portCost(cfg.Clusters[i].ICN1)
		total += float64(centers.ECN1[i].Topology().Switches()) * ports * m.portCost(cfg.Clusters[i].ECN1)
	}
	total += float64(centers.ICN2.Topology().Switches()) * ports * m.portCost(cfg.ICN2)
	return total, nil
}

// layoutConfig builds a heterogeneous configuration with one cluster per
// entry of nodes, cycling through the given ICN1 and ECN1 technologies.
func layoutConfig(nodes []int, icn1, ecn1 []network.Technology, arch network.Architecture) *core.Config {
	cfg := &core.Config{
		ICN2:         network.FastEthernet,
		Arch:         arch,
		Switch:       network.PaperSwitch,
		MessageBytes: 1024,
	}
	for i, n := range nodes {
		cfg.Clusters = append(cfg.Clusters, core.Cluster{
			Nodes:  n,
			Lambda: 100,
			ICN1:   icn1[i%len(icn1)],
			ECN1:   ecn1[i%len(ecn1)],
		})
	}
	return cfg
}

func TestCostBitIdenticalToBuildCentersReference(t *testing.T) {
	cm := DefaultCostModel()
	check := func(name string, cfg *core.Config) {
		t.Helper()
		got, err := cm.Cost(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := referenceCost(cm, cfg)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Cost %v, reference %v", name, got, want)
		}
	}
	cands, err := Enumerate(DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		check("default space candidate", c.Cfg)
	}
	ge, fe, my, ib := network.GigabitEthernet, network.FastEthernet, network.Myrinet, network.Infiniband
	// Identical clusters interleaved with different ones and then
	// repeated: only a cluster equal to its immediate predecessor may
	// reuse that predecessor's topologies.
	for _, nodes := range [][]int{
		{8, 8, 16, 8},
		{32, 16, 8, 8},
		{8, 16, 8, 16, 16, 8},
		{24, 24, 24, 24},
	} {
		for _, techs := range [][2][]network.Technology{
			{{ge}, {fe}},
			{{ge, ge, fe}, {fe}},
			{{ge}, {fe, my}},
			{{ib, ge}, {my, my, fe}},
		} {
			for _, arch := range []network.Architecture{network.NonBlocking, network.Blocking} {
				check("hand-made layout", layoutConfig(nodes, techs[0], techs[1], arch))
			}
		}
	}
}

func TestCostInvalidConfigErrorUnchanged(t *testing.T) {
	cm := DefaultCostModel()
	bad := network.Technology{Name: "broken", Latency: 1e-6}
	for name, cfg := range map[string]*core.Config{
		"no clusters": {ICN2: network.FastEthernet, Switch: network.PaperSwitch, MessageBytes: 1024},
		"zero nodes":  layoutConfig([]int{8, 0, 8}, []network.Technology{network.GigabitEthernet}, []network.Technology{network.FastEthernet}, network.NonBlocking),
		"bad ICN1":    layoutConfig([]int{8, 8, 8}, []network.Technology{network.GigabitEthernet, network.GigabitEthernet, bad}, []network.Technology{network.FastEthernet}, network.NonBlocking),
		"bad ECN1":    layoutConfig([]int{8, 8}, []network.Technology{network.GigabitEthernet}, []network.Technology{network.FastEthernet, bad}, network.Blocking),
		"odd switch port": func() *core.Config {
			cfg := layoutConfig([]int{8, 8}, []network.Technology{network.GigabitEthernet}, []network.Technology{network.FastEthernet}, network.NonBlocking)
			cfg.Switch.Ports = 5
			return cfg
		}(),
	} {
		_, err := cm.Cost(cfg)
		_, want := referenceCost(cm, cfg)
		if err == nil || want == nil {
			t.Fatalf("%s: Cost error %v, reference error %v; both must fail", name, err, want)
		}
		if err.Error() != want.Error() {
			t.Fatalf("%s: Cost error %q, reference %q", name, err, want)
		}
	}
	cfg := layoutConfig([]int{8, 8, 8}, []network.Technology{network.GigabitEthernet, network.GigabitEthernet, bad}, []network.Technology{network.FastEthernet}, network.NonBlocking)
	if _, err := cm.Cost(cfg); err == nil || !strings.HasPrefix(err.Error(), "core: cluster 2 ICN1: ") {
		t.Fatalf("bad ICN1 of cluster 2 reported as %v", err)
	}
}

// TestCostAllocsIndependentOfClusterCount guards the value models behind
// Cost: pricing a validated configuration allocates as much at C=256 as
// at C=4, whether the clusters form one run or every cluster is its own.
func TestCostAllocsIndependentOfClusterCount(t *testing.T) {
	cm := DefaultCostModel()
	allocs := func(cfg *core.Config) float64 {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := cm.Cost(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	ge, fe, my := network.GigabitEthernet, network.FastEthernet, network.Myrinet
	layout := func(c int, icn1 ...network.Technology) *core.Config {
		nodes := make([]int, c)
		for i := range nodes {
			nodes[i] = 8
		}
		return layoutConfig(nodes, icn1, []network.Technology{fe}, network.NonBlocking)
	}
	small, large := allocs(layout(4, ge)), allocs(layout(256, ge))
	if large != small {
		t.Fatalf("Cost allocates %v times at C=256 but %v at C=4", large, small)
	}
	// Alternating ICN1 technologies split every cluster into its own run.
	altSmall, altLarge := allocs(layout(4, ge, my)), allocs(layout(256, ge, my))
	if altSmall != small || altLarge != small {
		t.Fatalf("alternating layout allocates %v times at C=4 and %v at C=256, one run %v",
			altSmall, altLarge, small)
	}
}
