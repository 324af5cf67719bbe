package analytic

import (
	"context"
	"math"
	"testing"

	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/rng"
	"hmscs/internal/sim"
)

func TestAnalyzeSCVOneMatchesAnalyze(t *testing.T) {
	// scv = 1 is exactly the exponential model.
	for _, c := range []int{1, 4, 64} {
		cfg := paperCfg(t, core.Case1, c, 1024, network.NonBlocking)
		a, err := Analyze(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := AnalyzeSCV(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.MeanLatency-g.MeanLatency)/a.MeanLatency > 1e-6 {
			t.Fatalf("C=%d: M/G/1(scv=1) %v != M/M/1 %v", c, g.MeanLatency, a.MeanLatency)
		}
		if math.Abs(a.Scale-g.Scale) > 1e-6 {
			t.Fatalf("C=%d: scales differ %v vs %v", c, g.Scale, a.Scale)
		}
	}
}

func TestAnalyzeSCVZeroFasterThanExponential(t *testing.T) {
	// Deterministic service halves queueing waits, so the M/D/1 model must
	// predict latency at or below the M/M/1 model at any load.
	for _, c := range []int{4, 16, 128} {
		cfg := paperCfg(t, core.Case2, c, 512, network.Blocking)
		exp, err := AnalyzeSCV(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		det, err := AnalyzeSCV(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if det.MeanLatency > exp.MeanLatency*(1+1e-9) {
			t.Fatalf("C=%d: M/D/1 latency %v exceeds M/M/1 %v", c, det.MeanLatency, exp.MeanLatency)
		}
	}
}

func TestAnalyzeSCVPredictsDeterministicSimulation(t *testing.T) {
	// The scv=0 model should track the deterministic-service simulator
	// at a moderate (non-saturated) load better than coarse tolerance.
	cfg, err := core.NewSuperCluster(4, 8, 100, network.GigabitEthernet,
		network.FastEthernet, network.NonBlocking, network.PaperSwitch, 1024)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := AnalyzeSCV(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultOptions()
	opts.WarmupMessages = 1000
	opts.MeasuredMessages = 8000
	opts.ServiceDist = rng.Deterministic{Value: 1}
	agg, err := sim.RunReplicationsCtx(context.Background(), cfg, opts, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(pred.MeanLatency-agg.MeanLatency) / agg.MeanLatency
	if rel > 0.15 {
		t.Fatalf("M/D/1 model %v vs det-service sim %v: %.1f%% off",
			pred.MeanLatency, agg.MeanLatency, rel*100)
	}
}

func TestAnalyzeSCVHighVariancePenalty(t *testing.T) {
	// Higher service variability must not reduce predicted latency.
	cfg := paperCfg(t, core.Case1, 16, 1024, network.NonBlocking)
	prev := 0.0
	for i, scv := range []float64{0, 0.5, 1, 2, 4} {
		r, err := AnalyzeSCV(cfg, scv)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && r.MeanLatency < prev*(1-1e-9) {
			t.Fatalf("latency fell from %v to %v as SCV rose to %v", prev, r.MeanLatency, scv)
		}
		prev = r.MeanLatency
	}
}

func TestAnalyzeSCVValidation(t *testing.T) {
	cfg := paperCfg(t, core.Case1, 4, 512, network.NonBlocking)
	if _, err := AnalyzeSCV(cfg, -1); err == nil {
		t.Fatal("negative SCV accepted")
	}
	if _, err := AnalyzeSCV(&core.Config{}, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
}
