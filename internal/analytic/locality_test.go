package analytic

import (
	"context"
	"math"
	"testing"

	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/sim"
	"hmscs/internal/workload"
)

func TestLocalityAtNaturalValueMatchesUniformModel(t *testing.T) {
	// With locality = (N0-1)/(NT-1) the split equals uniform traffic, so
	// the model must reproduce Analyze exactly.
	for _, c := range []int{4, 16, 64} {
		cfg := paperCfg(t, core.Case1, c, 1024, network.NonBlocking)
		n0 := cfg.Clusters[0].Nodes
		natural := float64(n0-1) / float64(cfg.TotalNodes()-1)
		uniform, err := Analyze(cfg)
		if err != nil {
			t.Fatal(err)
		}
		local, err := AnalyzeLocality(cfg, natural)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(local.MeanLatency-uniform.MeanLatency)/uniform.MeanLatency > 1e-6 {
			t.Errorf("C=%d: locality model %v != uniform model %v at natural locality",
				c, local.MeanLatency, uniform.MeanLatency)
		}
	}
}

func TestLocalityFullyLocalUsesOnlyICN1(t *testing.T) {
	cfg := paperCfg(t, core.Case1, 8, 1024, network.NonBlocking)
	res, err := AnalyzeLocality(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// ICN2 idle, latency equals W_I1 exactly.
	if res.CenterW(ICN2, -1) != math.NaN() && res.Centers[len(res.Centers)-1].Lambda > 1e-9 {
		t.Fatalf("ICN2 carries %v at locality 1", res.Centers[len(res.Centers)-1].Lambda)
	}
	if math.Abs(res.MeanLatency-res.CenterW(ICN1, 0)) > 1e-12 {
		t.Fatalf("latency %v != W_I1 %v at locality 1", res.MeanLatency, res.CenterW(ICN1, 0))
	}
}

func TestLocalityReducesLatencyInBlockingNetworks(t *testing.T) {
	// The paper's §5.3 point: the blocking network is "not suited for
	// random traffic patterns, but for localized traffic patterns". Rising
	// locality must monotonically reduce the predicted latency.
	cfg := paperCfg(t, core.Case1, 16, 1024, network.Blocking)
	prev := math.Inf(1)
	for _, loc := range []float64{0, 0.25, 0.5, 0.75, 0.95, 1} {
		res, err := AnalyzeLocality(cfg, loc)
		if err != nil {
			t.Fatal(err)
		}
		if res.MeanLatency > prev*(1+1e-9) {
			t.Fatalf("latency rose from %v to %v at locality %v", prev, res.MeanLatency, loc)
		}
		prev = res.MeanLatency
	}
}

func TestLocalityModelTracksLocalBiasSimulation(t *testing.T) {
	cfg, err := core.NewSuperCluster(4, 8, 60, network.GigabitEthernet,
		network.FastEthernet, network.NonBlocking, network.PaperSwitch, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range []float64{0.2, 0.6, 0.9} {
		pred, err := AnalyzeLocality(cfg, loc)
		if err != nil {
			t.Fatal(err)
		}
		opts := sim.DefaultOptions()
		opts.WarmupMessages = 800
		opts.MeasuredMessages = 6000
		opts.Pattern = workload.LocalBias{Locality: loc}
		agg, err := sim.RunReplicationsCtx(context.Background(), cfg, opts, 3, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(pred.MeanLatency-agg.MeanLatency) / agg.MeanLatency
		if rel > 0.15 {
			t.Errorf("locality %v: model %v vs sim %v (%.1f%% off)",
				loc, pred.MeanLatency, agg.MeanLatency, rel*100)
		}
	}
}

func TestLocalityValidation(t *testing.T) {
	cfg := paperCfg(t, core.Case1, 4, 512, network.NonBlocking)
	if _, err := AnalyzeLocality(cfg, -0.1); err == nil {
		t.Error("negative locality accepted")
	}
	if _, err := AnalyzeLocality(cfg, 1.1); err == nil {
		t.Error("locality above 1 accepted")
	}
	if _, err := AnalyzeLocality(&core.Config{}, 0.5); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestLocalityDegenerateSingleNodeClusters(t *testing.T) {
	// Single-node clusters cannot keep traffic local; locality must be
	// forced to 0 as in the simulator's LocalBias.
	cfg := paperCfg(t, core.Case1, 256, 512, network.NonBlocking)
	res, err := AnalyzeLocality(cfg, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With N0=1 every message is remote under both models.
	if math.Abs(res.MeanLatency-uniform.MeanLatency)/uniform.MeanLatency > 1e-6 {
		t.Fatalf("N0=1: locality model %v != uniform %v", res.MeanLatency, uniform.MeanLatency)
	}
}
