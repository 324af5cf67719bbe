package analytic

import (
	"math"
	"testing"

	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/sim"
)

func TestMulticlassMatchesSingleClassOnHomogeneous(t *testing.T) {
	// On a homogeneous system the per-cluster classes are symmetric, so
	// the multiclass solution must agree with the single-class MVA.
	for _, c := range []int{2, 8, 32} {
		cfg := paperCfg(t, core.Case1, c, 1024, network.NonBlocking)
		single, err := AnalyzeMVA(cfg)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := AnalyzeMulticlass(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := multi.MeanResponse()
		if math.Abs(got-single.MeanLatency)/single.MeanLatency > 0.05 {
			t.Errorf("C=%d: multiclass %v vs single-class MVA %v", c, got, single.MeanLatency)
		}
		// Symmetric classes.
		for r := 1; r < c; r++ {
			if math.Abs(multi.ThroughputByClass[r]-multi.ThroughputByClass[0]) > 1e-6*multi.ThroughputByClass[0] {
				t.Fatalf("C=%d: class %d throughput differs from class 0", c, r)
			}
		}
	}
}

func heterogeneousCfg() *core.Config {
	return &core.Config{
		Clusters: []core.Cluster{
			{Nodes: 4, Lambda: 400, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
			{Nodes: 12, Lambda: 100, ICN1: network.FastEthernet, ECN1: network.FastEthernet},
			{Nodes: 8, Lambda: 200, ICN1: network.Myrinet, ECN1: network.GigabitEthernet},
		},
		ICN2:         network.GigabitEthernet,
		Arch:         network.NonBlocking,
		Switch:       network.PaperSwitch,
		MessageBytes: 1024,
	}
}

func TestMulticlassPredictsHeterogeneousSimulation(t *testing.T) {
	cfg := heterogeneousCfg()
	multi, err := AnalyzeMulticlass(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultOptions()
	opts.WarmupMessages = 1000
	opts.MeasuredMessages = 8000
	agg := simulate3(t, cfg, opts)
	got := multi.MeanResponse()
	rel := math.Abs(got-agg.MeanLatency) / agg.MeanLatency
	if rel > 0.15 {
		t.Fatalf("multiclass %v vs heterogeneous sim %v: %.1f%% off",
			got, agg.MeanLatency, rel*100)
	}
}

func TestMulticlassBeatsSymmetricModelOnHeterogeneous(t *testing.T) {
	// The multiclass closed model should be at least as accurate as the
	// open-model generalisation on a strongly heterogeneous system.
	cfg := heterogeneousCfg()
	multi, err := AnalyzeMulticlass(cfg)
	if err != nil {
		t.Fatal(err)
	}
	open, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultOptions()
	opts.WarmupMessages = 1000
	opts.MeasuredMessages = 8000
	agg := simulate3(t, cfg, opts)
	errMulti := math.Abs(multi.MeanResponse() - agg.MeanLatency)
	errOpen := math.Abs(open.MeanLatency - agg.MeanLatency)
	if errMulti > errOpen*1.1 {
		t.Fatalf("multiclass error %v worse than open-model error %v (sim %v)",
			errMulti, errOpen, agg.MeanLatency)
	}
}

func TestMulticlassStationOrder(t *testing.T) {
	cfg := heterogeneousCfg()
	res, err := AnalyzeMulticlass(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Utilization) != 2*3+1 {
		t.Fatalf("stations = %d, want 7", len(res.Utilization))
	}
	for i, u := range res.Utilization {
		if u < 0 || u > 1+1e-9 {
			t.Fatalf("station %d utilisation %v out of range", i, u)
		}
	}
}

func TestMulticlassRejectsInvalid(t *testing.T) {
	if _, err := AnalyzeMulticlass(&core.Config{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}
