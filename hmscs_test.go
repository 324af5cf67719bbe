package hmscs

import (
	"math"
	"path/filepath"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	cfg, err := PaperConfig(Case1, 16, 1024, NonBlocking)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultSimOptions()
	opts.WarmupMessages = 500
	opts.MeasuredMessages = 4000
	meas, err := Simulate(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(pred.MeanLatency-meas.MeanLatency()) / meas.MeanLatency()
	if rel > 0.15 {
		t.Fatalf("model %v vs simulation %v: rel err %.1f%%",
			pred.MeanLatency, meas.MeanLatency(), rel*100)
	}
}

func TestFacadeMVA(t *testing.T) {
	cfg, err := PaperConfig(Case2, 8, 512, Blocking)
	if err != nil {
		t.Fatal(err)
	}
	open, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mva, err := AnalyzeMVA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(open.MeanLatency-mva.MeanLatency)/mva.MeanLatency > 0.5 {
		t.Fatalf("open %v vs MVA %v diverge", open.MeanLatency, mva.MeanLatency)
	}
}

func TestFacadeReplications(t *testing.T) {
	cfg, err := NewSuperCluster(4, 8, 50, GigabitEthernet, FastEthernet,
		NonBlocking, PaperSwitch, 1024)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultSimOptions()
	opts.WarmupMessages = 200
	opts.MeasuredMessages = 1000
	agg, err := SimulateReplications(cfg, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if agg.MeanLatency <= 0 || agg.CI95 <= 0 {
		t.Fatalf("aggregate = %+v", agg)
	}
}

func TestFacadeFigureAnalyticOnly(t *testing.T) {
	spec, err := Figure(5)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultSweepOptions()
	opts.SkipSimulation = true
	res, err := RunFigure(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 || len(res.Series[0].Analytic) != 9 {
		t.Fatalf("figure shape wrong: %d series", len(res.Series))
	}
}

func TestFacadeConstantsWired(t *testing.T) {
	if PaperLambda != 250 {
		t.Fatalf("PaperLambda = %v", PaperLambda)
	}
	if PaperSwitch.Ports != 24 {
		t.Fatalf("PaperSwitch = %+v", PaperSwitch)
	}
	if GigabitEthernet.Bandwidth <= FastEthernet.Bandwidth {
		t.Fatal("technology presets wrong")
	}
}

func TestFacadeSCVAndMulticlass(t *testing.T) {
	cfg, err := PaperConfig(Case1, 8, 1024, NonBlocking)
	if err != nil {
		t.Fatal(err)
	}
	det, err := AnalyzeSCV(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	expo, err := AnalyzeSCV(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if det.MeanLatency > expo.MeanLatency {
		t.Fatal("deterministic service should not be slower")
	}
	multi, err := AnalyzeMulticlass(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(multi.MeanResponse()-expo.MeanLatency)/expo.MeanLatency > 0.1 {
		t.Fatalf("multiclass %v vs model %v diverge on homogeneous system",
			multi.MeanResponse(), expo.MeanLatency)
	}
}

// TestFacadeAnalyzeSCVRejectsNoFiniteWait: a service SCV with no finite
// Pollaczek–Khinchine wait (+Inf, NaN) or a negative one is an error,
// never a result with a NaN mean latency.
func TestFacadeAnalyzeSCVRejectsNoFiniteWait(t *testing.T) {
	cfg, err := PaperConfig(Case1, 4, 1024, NonBlocking)
	if err != nil {
		t.Fatal(err)
	}
	for _, scv := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), -0.5} {
		if res, err := AnalyzeSCV(cfg, scv); err == nil {
			t.Errorf("AnalyzeSCV(%g) returned mean latency %g and no error", scv, res.MeanLatency)
		}
	}
	if _, err := AnalyzeSCV(cfg, math.MaxFloat64); err != nil {
		t.Errorf("AnalyzeSCV(MaxFloat64): %v", err)
	}
}

func TestFacadeConfigFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	cfg, err := NewSuperCluster(4, 8, 77, Myrinet, Infiniband, Blocking, PaperSwitch, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveConfig(cfg, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != cfg.String() {
		t.Fatalf("round trip: %s vs %s", back.String(), cfg.String())
	}
}
