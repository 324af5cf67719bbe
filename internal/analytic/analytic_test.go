package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"hmscs/internal/core"
	"hmscs/internal/network"
)

func paperCfg(t *testing.T, s core.Scenario, c, msg int, arch network.Architecture) *core.Config {
	t.Helper()
	cfg, err := core.PaperConfig(s, c, msg, arch)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// lightCfg returns a configuration with load so light that no blocking
// occurs, making closed-form M/M/1 checks exact.
func lightCfg(t *testing.T, c, n0 int, lambda float64) *core.Config {
	t.Helper()
	cfg, err := core.NewSuperCluster(c, n0, lambda, network.GigabitEthernet,
		network.FastEthernet, network.NonBlocking, network.PaperSwitch, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestAnalyzeLightLoadMatchesOpenFormula(t *testing.T) {
	// At very light load the effective-rate scale is ~1 and eq. 15 can be
	// evaluated by hand.
	cfg := lightCfg(t, 4, 16, 0.01) // 0.01 msg/s per processor: negligible
	res, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatal("light load flagged as saturated")
	}
	if math.Abs(res.Scale-1) > 1e-4 {
		t.Fatalf("scale = %v, want ~1 at light load", res.Scale)
	}
	// Hand evaluation of eq. 15 with W_i ~ service time (no queueing).
	centers, err := cfg.BuildCenters()
	if err != nil {
		t.Fatal(err)
	}
	sI1, sE1, sI2 := centers.ServiceTimes(1024)
	p := cfg.POut(0)
	want := (1-p)*sI1[0] + p*(sI2+2*sE1[0])
	if math.Abs(res.MeanLatency-want)/want > 0.01 {
		t.Fatalf("light-load latency = %v, want about %v", res.MeanLatency, want)
	}
}

func TestAnalyzeSingleClusterHasNoRemoteTerm(t *testing.T) {
	cfg := lightCfg(t, 1, 16, 0.01)
	res, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 0 {
		t.Fatalf("P = %v, want 0 for C=1", res.P)
	}
	// Latency must equal the ICN1 sojourn alone.
	if math.Abs(res.MeanLatency-res.CenterW(ICN1, 0)) > 1e-12 {
		t.Fatalf("latency %v != W_I1 %v", res.MeanLatency, res.CenterW(ICN1, 0))
	}
}

// TestAnalyzeSingleClusterRounding is the regression test for a
// one-cluster system the fixed point used to reject: the ECN1 inbound
// term (totalGen − gen)·Nᵢ/(N_T−1) rounded to −5.2e-18 at a bisection
// scale, and the M/M/1 model refused the negative arrival rate.
func TestAnalyzeSingleClusterRounding(t *testing.T) {
	cfg, err := core.NewSuperCluster(1, 3, 0.008, network.GigabitEthernet,
		network.FastEthernet, network.NonBlocking, network.PaperSwitch, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(cfg); err != nil {
		t.Fatalf("Analyze rejected a valid one-cluster system: %v", err)
	}
}

func TestAnalyzePaperPlatformSaturates(t *testing.T) {
	// With the paper's λ=0.25/ms the 256-node platform drives its
	// bottleneck into saturation, which the effective-rate iteration must
	// absorb: scale < 1, every centre stable at the fixed point.
	cfg := paperCfg(t, core.Case1, 16, 1024, network.NonBlocking)
	res, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatal("paper platform at C=16 should saturate at raw rates")
	}
	if !(res.Scale > 0 && res.Scale < 1) {
		t.Fatalf("scale = %v, want in (0,1)", res.Scale)
	}
	for _, c := range res.Centers {
		if c.Rho >= 1 {
			t.Fatalf("centre %v[%d] unstable at fixed point: rho=%v", c.Kind, c.Cluster, c.Rho)
		}
	}
	if res.MeanLatency <= 0 || math.IsInf(res.MeanLatency, 1) || math.IsNaN(res.MeanLatency) {
		t.Fatalf("latency = %v", res.MeanLatency)
	}
}

func TestAnalyzeFixedPointConsistency(t *testing.T) {
	// The converged scale must satisfy eq. 7: scale = (N - L)/N within
	// tolerance, where L is the summed queue length at the fixed point.
	cfg := paperCfg(t, core.Case2, 64, 512, network.NonBlocking)
	res, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(cfg.TotalNodes())
	want := (n - res.TotalWaiting) / n
	if math.Abs(res.Scale-want) > 1e-6 {
		t.Fatalf("fixed point violated: scale=%v, (N-L)/N=%v", res.Scale, want)
	}
}

func TestAnalyzeBlockingSlowerThanNonBlocking(t *testing.T) {
	for _, c := range []int{4, 16, 64, 256} {
		nb, err := Analyze(paperCfg(t, core.Case1, c, 1024, network.NonBlocking))
		if err != nil {
			t.Fatal(err)
		}
		bl, err := Analyze(paperCfg(t, core.Case1, c, 1024, network.Blocking))
		if err != nil {
			t.Fatal(err)
		}
		if bl.MeanLatency <= nb.MeanLatency {
			t.Errorf("C=%d: blocking latency %v not larger than non-blocking %v",
				c, bl.MeanLatency, nb.MeanLatency)
		}
	}
}

func TestAnalyzeLargerMessagesSlower(t *testing.T) {
	for _, arch := range []network.Architecture{network.NonBlocking, network.Blocking} {
		small, err := Analyze(paperCfg(t, core.Case1, 32, 512, arch))
		if err != nil {
			t.Fatal(err)
		}
		large, err := Analyze(paperCfg(t, core.Case1, 32, 1024, arch))
		if err != nil {
			t.Fatal(err)
		}
		if large.MeanLatency <= small.MeanLatency {
			t.Errorf("%v: M=1024 latency %v not larger than M=512 %v",
				arch, large.MeanLatency, small.MeanLatency)
		}
	}
}

func TestAnalyzeBottleneck(t *testing.T) {
	// In Case 1 non-blocking at many clusters, the FE ICN2 carries all
	// remote traffic and must be the bottleneck.
	res, err := Analyze(paperCfg(t, core.Case1, 64, 1024, network.NonBlocking))
	if err != nil {
		t.Fatal(err)
	}
	b := res.Bottleneck()
	if b.Kind != ICN2 {
		t.Fatalf("bottleneck = %v[%d], want ICN2", b.Kind, b.Cluster)
	}
	if b.Rho < 0.9 {
		t.Fatalf("bottleneck utilisation = %v, expected near saturation", b.Rho)
	}
}

func TestCenterWUnknown(t *testing.T) {
	res, err := Analyze(paperCfg(t, core.Case1, 4, 512, network.NonBlocking))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.CenterW(ICN2, 3)) {
		t.Fatal("CenterW for nonexistent centre should be NaN")
	}
}

func TestCenterKindString(t *testing.T) {
	if ICN1.String() != "ICN1" || ECN1.String() != "ECN1" || ICN2.String() != "ICN2" {
		t.Fatal("kind strings wrong")
	}
	if CenterKind(9).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestAnalyzeHeterogeneous(t *testing.T) {
	cfg := &core.Config{
		Clusters: []core.Cluster{
			{Nodes: 32, Lambda: 100, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
			{Nodes: 96, Lambda: 25, ICN1: network.FastEthernet, ECN1: network.GigabitEthernet},
		},
		ICN2:         network.GigabitEthernet,
		Arch:         network.NonBlocking,
		Switch:       network.PaperSwitch,
		MessageBytes: 1024,
	}
	res, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanLatency <= 0 {
		t.Fatalf("latency = %v", res.MeanLatency)
	}
	if len(res.Centers) != 5 {
		t.Fatalf("centers = %d, want 5", len(res.Centers))
	}
}

func TestAnalyzeMVAAgreesAtLightLoad(t *testing.T) {
	// At light load both the open approximation and exact MVA must give
	// latencies near the bare service-time mix.
	cfg := lightCfg(t, 4, 16, 0.01)
	open, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mva, err := AnalyzeMVA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(open.MeanLatency-mva.MeanLatency)/open.MeanLatency > 0.05 {
		t.Fatalf("open %v vs MVA %v disagree at light load", open.MeanLatency, mva.MeanLatency)
	}
	if mva.BottleneckUtilization > 0.01 {
		t.Fatalf("light-load utilisation = %v", mva.BottleneckUtilization)
	}
}

func TestAnalyzeMVASaturatedThroughputBound(t *testing.T) {
	cfg := paperCfg(t, core.Case1, 64, 1024, network.NonBlocking)
	mva, err := AnalyzeMVA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Effective lambda cannot exceed the configured lambda.
	if mva.EffectiveLambda > core.PaperLambda*(1+1e-9) {
		t.Fatalf("effective lambda %v exceeds configured %v", mva.EffectiveLambda, core.PaperLambda)
	}
	if mva.BottleneckUtilization < 0.95 {
		t.Fatalf("expected saturation, got utilisation %v", mva.BottleneckUtilization)
	}
	if mva.MeanLatency <= 0 {
		t.Fatalf("MVA latency = %v", mva.MeanLatency)
	}
}

func TestOpenModelTracksMVAOnPaperPlatform(t *testing.T) {
	// The paper's approximation and exact MVA should agree on the latency
	// within a modest factor across the figure's x-axis (they are different
	// approximations of the same closed system).
	for _, c := range []int{2, 8, 32, 128} {
		cfg := paperCfg(t, core.Case1, c, 1024, network.NonBlocking)
		open, err := Analyze(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mva, err := AnalyzeMVA(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ratio := open.MeanLatency / mva.MeanLatency
		if ratio < 0.3 || ratio > 3.5 {
			t.Errorf("C=%d: open %v vs MVA %v (ratio %v) diverge beyond tolerance",
				c, open.MeanLatency, mva.MeanLatency, ratio)
		}
	}
}

func TestAnalyzeRejectsInvalidConfig(t *testing.T) {
	cfg := &core.Config{}
	if _, err := Analyze(cfg); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := AnalyzeMVA(cfg); err == nil {
		t.Fatal("empty config accepted by MVA")
	}
}

func TestQuickAnalyzeLatencyPositiveAndFinite(t *testing.T) {
	f := func(cIdx, mIdx, archRaw uint8) bool {
		counts := core.PaperClusterCounts()
		c := counts[int(cIdx)%len(counts)]
		msg := core.PaperMessageSizes[int(mIdx)%2]
		arch := network.NonBlocking
		if archRaw%2 == 1 {
			arch = network.Blocking
		}
		cfg, err := core.PaperConfig(core.Case1, c, msg, arch)
		if err != nil {
			return false
		}
		res, err := Analyze(cfg)
		if err != nil {
			return false
		}
		return res.MeanLatency > 0 && !math.IsInf(res.MeanLatency, 1) &&
			!math.IsNaN(res.MeanLatency) && res.Scale > 0 && res.Scale <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
