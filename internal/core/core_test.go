package core

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hmscs/internal/network"
)

func mustPaperConfig(t *testing.T, s Scenario, c, msg int, arch network.Architecture) *Config {
	t.Helper()
	cfg, err := PaperConfig(s, c, msg, arch)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestPOutEq8(t *testing.T) {
	// Paper eq. 8: P = (C-1)N0 / (C*N0 - 1).
	cases := []struct {
		c, n0 int
		want  float64
	}{
		{1, 256, 0},
		{2, 128, 128.0 / 255.0},
		{16, 16, 240.0 / 255.0},
		{256, 1, 255.0 / 255.0},
	}
	for _, tc := range cases {
		cfg := mustPaperConfig(t, Case1, tc.c, 1024, network.NonBlocking)
		_ = tc.n0
		got := cfg.POut(0)
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("C=%d: P = %v, want %v", tc.c, got, tc.want)
		}
	}
}

func TestArrivalRatesMatchPaperEquations(t *testing.T) {
	// Homogeneous C=4, N0=64: check eq. 1, 5, 3.
	cfg := mustPaperConfig(t, Case1, 4, 1024, network.NonBlocking)
	lambda := PaperLambda
	p := cfg.POut(0)
	r := cfg.ArrivalRates(1)
	n0 := 64.0
	wantI1 := n0 * (1 - p) * lambda
	wantE1 := 2 * n0 * p * lambda
	wantI2 := 4 * n0 * p * lambda
	if math.Abs(r.ICN1[0]-wantI1) > 1e-9 {
		t.Errorf("lambda_I1 = %v, want %v (eq. 1)", r.ICN1[0], wantI1)
	}
	if math.Abs(r.ECN1[0]-wantE1) > 1e-9 {
		t.Errorf("lambda_E1 = %v, want %v (eq. 5)", r.ECN1[0], wantE1)
	}
	if math.Abs(r.ICN2-wantI2) > 1e-9 {
		t.Errorf("lambda_I2 = %v, want %v (eq. 3)", r.ICN2, wantI2)
	}
	// All clusters identical.
	for i := range r.ICN1 {
		if r.ICN1[i] != r.ICN1[0] || r.ECN1[i] != r.ECN1[0] {
			t.Fatalf("homogeneous rates differ across clusters")
		}
	}
}

func TestArrivalRatesScale(t *testing.T) {
	cfg := mustPaperConfig(t, Case1, 8, 512, network.NonBlocking)
	full := cfg.ArrivalRates(1)
	half := cfg.ArrivalRates(0.5)
	if math.Abs(half.ICN2-full.ICN2/2) > 1e-9 {
		t.Fatalf("scaling is not linear: %v vs %v/2", half.ICN2, full.ICN2)
	}
	if math.Abs(half.ICN1[0]-full.ICN1[0]/2) > 1e-9 {
		t.Fatal("ICN1 scaling wrong")
	}
}

func TestFlowConservation(t *testing.T) {
	// Total generated = total entering first-stage centres; and ICN2 input
	// equals the sum of outbound halves of the ECN1 flows.
	cfg := mustPaperConfig(t, Case2, 16, 1024, network.Blocking)
	r := cfg.ArrivalRates(1)
	gen := float64(cfg.TotalNodes()) * PaperLambda
	firstStage := 0.0
	for i := range r.ICN1 {
		firstStage += r.ICN1[i]
	}
	// Local traffic + remote traffic must equal everything generated.
	remote := r.ICN2
	if math.Abs(firstStage+remote-gen) > 1e-6 {
		t.Fatalf("flow conservation: local %v + remote %v != generated %v", firstStage, remote, gen)
	}
	// Each ECN1 carries outbound + inbound; summed over clusters this is
	// exactly twice the ICN2 flow.
	sumE := 0.0
	for _, v := range r.ECN1 {
		sumE += v
	}
	if math.Abs(sumE-2*r.ICN2) > 1e-6 {
		t.Fatalf("sum ECN1 = %v, want 2*ICN2 = %v", sumE, 2*r.ICN2)
	}
}

// TestArrivalRatesSingleClusterNotNegative sweeps the scale of a
// one-cluster system: with no other cluster the true ECN1 rate is zero,
// and rounding may leave a residue above it but never one below.
func TestArrivalRatesSingleClusterNotNegative(t *testing.T) {
	cfg, err := NewSuperCluster(1, 3, 0.008, network.GigabitEthernet,
		network.FastEthernet, network.NonBlocking, network.PaperSwitch, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 1000; k++ {
		s := float64(k) / 1000
		if r := cfg.ArrivalRates(s); r.ECN1[0] < 0 {
			t.Fatalf("scale %v: ECN1 rate %v is negative", s, r.ECN1[0])
		}
	}
}

func TestHeterogeneousRates(t *testing.T) {
	// Two clusters of different sizes and rates.
	cfg := &Config{
		Clusters: []Cluster{
			{Nodes: 10, Lambda: 100, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
			{Nodes: 30, Lambda: 50, ICN1: network.FastEthernet, ECN1: network.FastEthernet},
		},
		ICN2:         network.FastEthernet,
		Arch:         network.NonBlocking,
		Switch:       network.PaperSwitch,
		MessageBytes: 512,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Homogeneous() {
		t.Fatal("config should be heterogeneous")
	}
	nt := 40.0
	p0 := (nt - 10) / (nt - 1)
	p1 := (nt - 30) / (nt - 1)
	if math.Abs(cfg.POut(0)-p0) > 1e-12 || math.Abs(cfg.POut(1)-p1) > 1e-12 {
		t.Fatalf("POut = %v, %v; want %v, %v", cfg.POut(0), cfg.POut(1), p0, p1)
	}
	r := cfg.ArrivalRates(1)
	// Flow conservation still holds.
	gen := 10*100.0 + 30*50.0
	local := r.ICN1[0] + r.ICN1[1]
	if math.Abs(local+r.ICN2-gen) > 1e-6 {
		t.Fatalf("heterogeneous flow conservation: %v + %v != %v", local, r.ICN2, gen)
	}
	sumE := r.ECN1[0] + r.ECN1[1]
	if math.Abs(sumE-2*r.ICN2) > 1e-6 {
		t.Fatalf("heterogeneous ECN1 sum %v != 2*ICN2 %v", sumE, 2*r.ICN2)
	}
	// The bigger cluster keeps more traffic local.
	if !(r.ICN1[1] > r.ICN1[0]) {
		t.Fatal("larger cluster should have more local traffic")
	}
}

func TestTrafficWeight(t *testing.T) {
	cfg := mustPaperConfig(t, Case1, 4, 1024, network.NonBlocking)
	for i := 0; i < 4; i++ {
		if math.Abs(cfg.TrafficWeight(i)-0.25) > 1e-12 {
			t.Fatalf("homogeneous weight = %v, want 0.25", cfg.TrafficWeight(i))
		}
	}
}

func TestBuildCentersEndpoints(t *testing.T) {
	cfg := mustPaperConfig(t, Case1, 16, 1024, network.NonBlocking)
	ct, err := cfg.BuildCenters()
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.ICN1) != 16 || len(ct.ECN1) != 16 {
		t.Fatalf("center counts: %d, %d", len(ct.ICN1), len(ct.ECN1))
	}
	if ct.ICN1[0].Endpoints != 16 {
		t.Fatalf("ICN1 endpoints = %d, want N0=16", ct.ICN1[0].Endpoints)
	}
	if ct.ECN1[0].Endpoints != 17 {
		t.Fatalf("ECN1 endpoints = %d, want N0+1=17", ct.ECN1[0].Endpoints)
	}
	if ct.ICN2.Endpoints != 16 {
		t.Fatalf("ICN2 endpoints = %d, want C=16", ct.ICN2.Endpoints)
	}
	// At C=16 / Pr=24 all networks are single-switch (the paper's observed
	// regime change).
	if ct.ICN1[0].Topology().Switches() != 1 || ct.ICN2.Topology().Switches() != 1 {
		t.Fatal("C=16 should be the single-switch regime")
	}
}

func TestCentersTechnologiesPerScenario(t *testing.T) {
	cfg1 := mustPaperConfig(t, Case1, 8, 1024, network.NonBlocking)
	ct1, err := cfg1.BuildCenters()
	if err != nil {
		t.Fatal(err)
	}
	if ct1.ICN1[0].Tech.Name != "GigabitEthernet" || ct1.ICN2.Tech.Name != "FastEthernet" {
		t.Fatal("Case 1 technologies wrong (Table 1)")
	}
	cfg2 := mustPaperConfig(t, Case2, 8, 1024, network.NonBlocking)
	ct2, err := cfg2.BuildCenters()
	if err != nil {
		t.Fatal(err)
	}
	if ct2.ICN1[0].Tech.Name != "FastEthernet" || ct2.ICN2.Tech.Name != "GigabitEthernet" {
		t.Fatal("Case 2 technologies wrong (Table 1)")
	}
}

// TestEachClusterModelsReusesPredecessor pins the build rule behind
// the analytic model and plan's costing: a cluster built like its immediate
// predecessor shares its predecessor's models, so each run of clusters
// built alike is visited once, with models describing its clusters.
func TestEachClusterModelsReusesPredecessor(t *testing.T) {
	cfg := mustPaperConfig(t, Case1, 8, 1024, network.NonBlocking)
	for i, n := range []int{8, 8, 16, 8, 8, 8, 8, 8} {
		cfg.Clusters[i].Nodes = n
	}
	cfg.Clusters[1].Lambda *= 2                    // rates do not split a run
	cfg.Clusters[5].ECN1 = network.GigabitEthernet // technologies do
	type visit struct{ first, n int }
	var visits []visit
	icn2, err := cfg.EachClusterModels(func(i, n int, mI1, mE1 network.Model) {
		visits = append(visits, visit{i, n})
		cl := cfg.Clusters[i]
		if mI1.Endpoints != cl.Nodes || mE1.Endpoints != cl.Nodes+1 || mI1.Tech != cl.ICN1 || mE1.Tech != cl.ECN1 {
			t.Fatalf("run at cluster %d: models %v / %v do not describe %+v", i, &mI1, &mE1, cl)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if icn2.Endpoints != 8 {
		t.Fatalf("ICN2 over %d endpoints, want 8", icn2.Endpoints)
	}
	if want := []visit{{0, 2}, {2, 1}, {3, 2}, {5, 1}, {6, 2}}; !reflect.DeepEqual(visits, want) {
		t.Fatalf("visited runs %v, want %v", visits, want)
	}
}

func TestServiceTimes(t *testing.T) {
	cfg := mustPaperConfig(t, Case1, 4, 1024, network.NonBlocking)
	ct, err := cfg.BuildCenters()
	if err != nil {
		t.Fatal(err)
	}
	icn1, ecn1, icn2 := ct.ServiceTimes(1024)
	if len(icn1) != 4 || len(ecn1) != 4 {
		t.Fatal("service time slices wrong length")
	}
	// ICN1 is GE (fast for 1KB messages), ECN1/ICN2 are FE: FE must be slower.
	if !(ecn1[0] > icn1[0]) {
		t.Fatalf("FE ECN1 (%v) should be slower than GE ICN1 (%v) at 1KB", ecn1[0], icn1[0])
	}
	if icn2 <= 0 {
		t.Fatal("ICN2 service time must be positive")
	}
}

func TestMVAStationsHomogeneous(t *testing.T) {
	cfg := mustPaperConfig(t, Case1, 4, 1024, network.NonBlocking)
	stations, think, err := cfg.MVAStations()
	if err != nil {
		t.Fatal(err)
	}
	if len(stations) != 9 { // 2 per cluster + ICN2
		t.Fatalf("stations = %d, want 9", len(stations))
	}
	if math.Abs(think-1/PaperLambda) > 1e-12 {
		t.Fatalf("think = %v", think)
	}
	// Visit ratios must total (1-P) + 2P + P = 1 + 2P per message.
	p := cfg.POut(0)
	sum := 0.0
	for _, s := range stations {
		sum += s.VisitRatio
	}
	if math.Abs(sum-(1+2*p)) > 1e-12 {
		t.Fatalf("visit ratios sum to %v, want %v", sum, 1+2*p)
	}
}

func TestMVAStationsRejectHeterogeneous(t *testing.T) {
	cfg := &Config{
		Clusters: []Cluster{
			{Nodes: 2, Lambda: 1, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
			{Nodes: 3, Lambda: 1, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
		},
		ICN2: network.FastEthernet, Arch: network.NonBlocking,
		Switch: network.PaperSwitch, MessageBytes: 64,
	}
	if _, _, err := cfg.MVAStations(); err == nil {
		t.Fatal("heterogeneous MVA mapping should be rejected")
	}
}

func TestConfigValidation(t *testing.T) {
	base := func() *Config {
		cfg, _ := PaperConfig(Case1, 4, 1024, network.NonBlocking)
		return cfg
	}
	{
		cfg := base()
		cfg.Clusters = nil
		if err := cfg.Validate(); err == nil {
			t.Error("empty clusters accepted")
		}
	}
	{
		cfg := base()
		cfg.Clusters[0].Nodes = 0
		if err := cfg.Validate(); err == nil {
			t.Error("zero nodes accepted")
		}
	}
	{
		cfg := base()
		cfg.Clusters[0].Lambda = 0
		if err := cfg.Validate(); err == nil {
			t.Error("zero lambda accepted")
		}
	}
	{
		cfg := base()
		cfg.MessageBytes = 0
		if err := cfg.Validate(); err == nil {
			t.Error("zero message size accepted")
		}
	}
	{
		cfg := base()
		cfg.Switch.Ports = 3
		if err := cfg.Validate(); err == nil {
			t.Error("bad switch accepted")
		}
	}
	{
		cfg := base()
		cfg.Clusters = []Cluster{{Nodes: 1, Lambda: 1,
			ICN1: network.GigabitEthernet, ECN1: network.GigabitEthernet}}
		if err := cfg.Validate(); err == nil {
			t.Error("single-processor system accepted")
		}
	}
}

func TestPaperConfigRejectsBadClusterCounts(t *testing.T) {
	for _, c := range []int{0, 3, 5, 7, 100} {
		if _, err := PaperConfig(Case1, c, 1024, network.NonBlocking); err == nil {
			t.Errorf("cluster count %d should be rejected (must divide 256)", c)
		}
	}
	if _, err := PaperConfig(Scenario(3), 4, 1024, network.NonBlocking); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestPaperClusterCounts(t *testing.T) {
	counts := PaperClusterCounts()
	if len(counts) != 9 || counts[0] != 1 || counts[8] != 256 {
		t.Fatalf("cluster counts = %v", counts)
	}
	for _, c := range counts {
		if PaperTotalNodes%c != 0 {
			t.Errorf("%d does not divide 256", c)
		}
	}
}

func TestConfigString(t *testing.T) {
	cfg := mustPaperConfig(t, Case1, 4, 1024, network.NonBlocking)
	s := cfg.String()
	for _, frag := range []string{"C=4", "N0=64", "GigabitEthernet"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
	het := &Config{
		Clusters: []Cluster{
			{Nodes: 2, Lambda: 1, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
			{Nodes: 3, Lambda: 2, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
		},
		ICN2: network.FastEthernet, Arch: network.Blocking,
		Switch: network.PaperSwitch, MessageBytes: 64,
	}
	if !strings.Contains(het.String(), "heterogeneous") {
		t.Errorf("heterogeneous String() = %q", het.String())
	}
}

func TestQuickPOutInUnitInterval(t *testing.T) {
	f := func(cRaw, n0Raw uint8) bool {
		c := int(cRaw%32) + 1
		n0 := int(n0Raw%32) + 1
		if c*n0 < 2 {
			return true
		}
		cfg, err := NewSuperCluster(c, n0, 1, network.GigabitEthernet,
			network.FastEthernet, network.NonBlocking, network.PaperSwitch, 512)
		if err != nil {
			return false
		}
		p := cfg.POut(0)
		if p < 0 || p > 1 {
			return false
		}
		// C=1 means no remote traffic at all.
		if c == 1 && p != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFlowConservation(t *testing.T) {
	f := func(cRaw, n0Raw, mRaw uint8) bool {
		c := int(cRaw%16) + 1
		n0 := int(n0Raw%16) + 1
		if c*n0 < 2 {
			return true
		}
		msg := int(mRaw)*8 + 64
		cfg, err := NewSuperCluster(c, n0, 100, network.GigabitEthernet,
			network.FastEthernet, network.Blocking, network.PaperSwitch, msg)
		if err != nil {
			return false
		}
		r := cfg.ArrivalRates(1)
		gen := float64(c*n0) * 100
		local := 0.0
		for _, v := range r.ICN1 {
			local += v
		}
		return math.Abs(local+r.ICN2-gen) < 1e-6*gen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRuns counts runs of consecutive identical clusters: any difference
// in size, rate or technology starts a new run, and a homogeneous system
// is one run.
func TestRuns(t *testing.T) {
	cfg := mustPaperConfig(t, Case1, 8, 1024, network.NonBlocking)
	if cfg.Runs() != 1 || !cfg.Homogeneous() {
		t.Fatalf("homogeneous system: %d runs", cfg.Runs())
	}
	cfg.Clusters[2].Lambda *= 2
	cfg.Clusters[3].Lambda *= 2
	cfg.Clusters[5].Nodes++
	cfg.Clusters[7].ECN1 = network.Myrinet
	// Runs: [0,1] [2,3] [4] [5] [6] [7].
	if got := cfg.Runs(); got != 6 || cfg.Homogeneous() {
		t.Fatalf("got %d runs, want 6", got)
	}
	if got := (&Config{}).Runs(); got != 0 {
		t.Fatalf("empty system: %d runs", got)
	}
}
