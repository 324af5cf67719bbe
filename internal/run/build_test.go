package run

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/plan"
	"hmscs/internal/workload"
)

func TestParseArrivalSpecs(t *testing.T) {
	cases := []struct {
		spec  string
		ratio float64
		want  string
	}{
		{"poisson", 10, "poisson"},
		{"", 10, "poisson"},
		{"periodic", 10, "periodic"},
		{"det", 10, "periodic"},
		{"mmpp", 10, "mmpp(r=10,f=0.10)"},
		{"mmpp:0.25", 20, "mmpp(r=20,f=0.25)"},
		{"mmpp", math.Inf(1), "mmpp(r=+Inf,f=0.10)"},
		{"pareto", 10, "pareto(a=1.5)"},
		{"pareto:2.5", 10, "pareto(a=2.5)"},
		{"weibull:0.8", 10, "weibull(k=0.8)"},
	}
	for _, tc := range cases {
		arr, err := ParseArrival(tc.spec, tc.ratio, nil)
		if err != nil {
			t.Errorf("ParseArrival(%q): %v", tc.spec, err)
			continue
		}
		if arr.Name() != tc.want {
			t.Errorf("ParseArrival(%q) = %s, want %s", tc.spec, arr.Name(), tc.want)
		}
	}
	// The dwell argument reaches the MMPP.
	arr, err := ParseArrival("mmpp:0.2:120", 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := arr.(*workload.MMPP); !ok || m.Dwell != 120 {
		t.Fatalf("dwell not threaded: %#v", arr)
	}
	for _, spec := range []string{"mmpp:x", "pareto:0.5", "weibull:-1", "spiral", "trace"} {
		if _, err := ParseArrival(spec, 10, nil); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// TestParseArrivalTraceFile: a trace file read the way the CLI reads
// -trace replays through ParseArrival's timestamps; no timestamps is an
// error.
func TestParseArrivalTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, []byte("0\n0.5\n0.6\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ts, err := workload.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := ParseArrival("trace", 10, ts)
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := arr.(*workload.Trace)
	if !ok || tr.Len() != 3 {
		t.Fatalf("trace not loaded: %#v", arr)
	}
	if _, err := ParseArrival("trace", 10, nil); err == nil {
		t.Error("trace arrival without timestamps accepted")
	}
}

func TestParsePattern(t *testing.T) {
	if _, err := ParsePattern("uniform"); err != nil {
		t.Fatal(err)
	}
	p, err := ParsePattern("hotspot:0.3")
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := p.(workload.Hotspot); !ok || h.Fraction != 0.3 {
		t.Fatalf("pattern = %#v", p)
	}
	for _, bad := range []string{"local:2", "local:x", "hotspot:-1", "zipf"} {
		if _, err := ParsePattern(bad); err == nil {
			t.Errorf("pattern %q accepted", bad)
		}
	}
}

func TestParseService(t *testing.T) {
	for _, svc := range []string{"exp", "det", "erlang4", "h2"} {
		if _, err := ParseService(svc); err != nil {
			t.Errorf("service %q: %v", svc, err)
		}
	}
	if _, err := ParseService("cauchy"); err == nil {
		t.Fatal("unknown service accepted")
	}
	det, err := ParseService("det")
	if err != nil {
		t.Fatal(err)
	}
	if det.SCV() != 0 {
		t.Fatal("det service has nonzero SCV")
	}
}

func TestParseIntList(t *testing.T) {
	got, err := ParseIntList("1, 2,4")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 4 {
		t.Fatalf("list = %v", got)
	}
	if _, err := ParseIntList(""); err == nil {
		t.Fatal("empty list accepted")
	}
	if _, err := ParseIntList("1,x"); err == nil {
		t.Fatal("bad entry accepted")
	}
}

func TestParseFloatList(t *testing.T) {
	got, err := ParseFloatList("0.25, 2.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != 2.5 {
		t.Fatalf("list = %v", got)
	}
	if _, err := ParseFloatList("a"); err == nil {
		t.Fatal("bad float accepted")
	}
}

func TestSimOptionsThreadWorkload(t *testing.T) {
	e := NewExperiment(KindSimulate)
	e.Run.Seed = 9
	e.Run.Messages = 500
	e.Workload.Service = "det"
	e.Workload.Pattern = "local:0.8"
	e.Workload.Arrival = "mmpp"
	e.Workload.BurstRatio = 20
	opts, err := e.simOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Seed != 9 || opts.MeasuredMessages != 500 {
		t.Fatal("options not applied")
	}
	if opts.ServiceDist.SCV() != 0 {
		t.Fatal("det service not applied")
	}
	if _, ok := opts.Pattern.(workload.LocalBias); !ok {
		t.Fatalf("pattern = %T", opts.Pattern)
	}
	if opts.Arrival == nil || opts.Arrival.Name() != "mmpp(r=20,f=0.10)" {
		t.Fatalf("arrival not threaded: %#v", opts.Arrival)
	}
}

func TestNetBuild(t *testing.T) {
	e := NewExperiment(KindNetsim)
	e.Net.Topo = "linear-array"
	e.Net.N = 24
	e.Net.Ports = 8
	e.Net.Tech = "FE"
	e.Workload.Pattern = "hotspot:0.3"
	e.Workload.Arrival = "periodic"
	e.Run.Open = true
	exp, opts, err := e.buildNet()
	if err != nil {
		t.Fatal(err)
	}
	net, err := exp.network()
	if err != nil {
		t.Fatal(err)
	}
	if net.Kind.String() != "linear-array" || net.N != 24 {
		t.Fatalf("built %s N=%d", net.Kind, net.N)
	}
	if exp.Arrival.Name() != "periodic" || opts.Arrival.Name() != "periodic" {
		t.Fatalf("netsim arrival = %s / %s", exp.Arrival.Name(), opts.Arrival.Name())
	}
	if opts.Pattern.Name() != "hotspot(node=0,p=0.30)" {
		t.Fatalf("netsim pattern = %s", opts.Pattern.Name())
	}
	if opts.OpenLoop {
		t.Fatal("netsim options are open-loop")
	}
	if exp.Tech.Name != "FastEthernet" || exp.Switch.Ports != 8 {
		t.Fatalf("resolved tech/switch wrong: %s / %d ports", exp.Tech.Name, exp.Switch.Ports)
	}
}

func TestNetBuildRejectsBadValues(t *testing.T) {
	for _, mutate := range []func(*Experiment){
		func(e *Experiment) { e.Workload.Service = "zeta" },
		func(e *Experiment) { e.Net.Tech = "bogus" },
		func(e *Experiment) { e.Workload.Pattern = "spiral" },
		func(e *Experiment) { e.Workload.Arrival = "spiral" },
	} {
		e := NewExperiment(KindNetsim)
		mutate(e)
		if _, _, err := e.buildNet(); err == nil {
			t.Errorf("mutated netsim spec accepted: %+v %+v", e.Net, e.Workload)
		}
	}
	// The topology is validated when the network is built.
	e := NewExperiment(KindNetsim)
	e.Net.Topo = "torus"
	exp, _, err := e.buildNet()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.network(); err == nil {
		t.Error("bad topology accepted")
	}
}

// heterogeneousConfig is a 3-cluster unequal config for the config
// resolution tests.
func heterogeneousConfig() *core.Config {
	return &core.Config{
		Clusters: []core.Cluster{
			{Nodes: 16, Lambda: 100, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
			{Nodes: 8, Lambda: 200, ICN1: network.Myrinet, ECN1: network.FastEthernet},
			{Nodes: 4, Lambda: 50, ICN1: network.FastEthernet, ECN1: network.GigabitEthernet},
		},
		ICN2: network.GigabitEthernet, Arch: network.NonBlocking,
		Switch: network.PaperSwitch, MessageBytes: 512,
	}
}

func TestNetConfigResolution(t *testing.T) {
	cfg := heterogeneousConfig()
	rates := cfg.ArrivalRates(1)
	cases := []struct {
		net       string
		cluster   int
		tech      string
		endpoints int
		rate      float64
	}{
		{"icn2", 0, "GigabitEthernet", 3, rates.ICN2},
		{"icn1", 0, "GigabitEthernet", 16, rates.ICN1[0]},
		{"icn1", 1, "Myrinet", 8, rates.ICN1[1]},
		{"ecn1", 2, "GigabitEthernet", 5, rates.ECN1[2]},
	}
	for _, tc := range cases {
		e := NewExperiment(KindNetsim)
		e.Net.Config = cfg
		e.Net.Net = tc.net
		e.Net.Cluster = tc.cluster
		exp, _, err := e.buildNet()
		if err != nil {
			t.Fatalf("%s[%d]: %v", tc.net, tc.cluster, err)
		}
		if exp.Tech.Name != tc.tech {
			t.Errorf("%s[%d]: tech %s, want %s", tc.net, tc.cluster, exp.Tech.Name, tc.tech)
		}
		if exp.N != tc.endpoints {
			t.Errorf("%s[%d]: %d endpoints, want %d", tc.net, tc.cluster, exp.N, tc.endpoints)
		}
		want := tc.rate / float64(tc.endpoints)
		if math.Abs(exp.Lambda-want) > 1e-9*want {
			t.Errorf("%s[%d]: per-endpoint λ %g, want %g", tc.net, tc.cluster, exp.Lambda, want)
		}
		if exp.MsgBytes != 512 || exp.Switch.Ports != cfg.Switch.Ports {
			t.Errorf("%s[%d]: message/switch parameters not resolved", tc.net, tc.cluster)
		}
		if exp.Topo != "fat-tree" {
			t.Errorf("%s[%d]: topo %s, want fat-tree for non-blocking", tc.net, tc.cluster, exp.Topo)
		}
	}
}

// TestSimulateSpecBuildsPaperSwitch: a normalized simulate spec's system
// carries network.PaperSwitch bit for bit, as a configuration file naming
// the paper's 10 µs switch does.
func TestSimulateSpecBuildsPaperSwitch(t *testing.T) {
	cfg, err := NewExperiment(KindSimulate).System.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Switch.Ports != network.PaperSwitch.Ports ||
		math.Float64bits(cfg.Switch.Latency) != math.Float64bits(network.PaperSwitch.Latency) {
		t.Fatalf("switch %+v, want %+v", cfg.Switch, network.PaperSwitch)
	}
}

// TestFlagSystemRoundTripsThroughConfigFile: a system built from the flag
// fields and the same system saved as a configuration file and read back
// are the same value, so -config on a saved system reruns it exactly.
func TestFlagSystemRoundTripsThroughConfigFile(t *testing.T) {
	for _, set := range []func(*SystemSpec){
		func(*SystemSpec) {},
		func(s *SystemSpec) { s.SwLatUS, s.Case, s.Clusters, s.MsgBytes = 7.3, 2, 8, 1500 },
		func(s *SystemSpec) { s.SwLatUS, s.ICN1, s.ECN, s.Arch = 0.1, "Myrinet", "GE", "blocking" },
	} {
		e := NewExperiment(KindSimulate)
		set(e.System)
		cfg, err := e.System.Build()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "system.json")
		if err := core.SaveConfig(cfg, path); err != nil {
			t.Fatal(err)
		}
		back, err := core.LoadConfig(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cfg, back) {
			t.Errorf("system %+v: built %v (switch %v s), read back %v (switch %v s)",
				*e.System, cfg, cfg.Switch.Latency, back, back.Switch.Latency)
		}
	}
}

// TestNetConfigKeepsSwitch: a netsim spec carrying a configuration
// simulates that configuration's switch, not one rebuilt from its µs.
func TestNetConfigKeepsSwitch(t *testing.T) {
	cfg := heterogeneousConfig()
	cfg.Switch = network.Switch{Ports: 16, Latency: 1.6729663442585624e-05}
	e := NewExperiment(KindNetsim)
	e.Net.Config = cfg
	exp, _, err := e.buildNet()
	if err != nil {
		t.Fatal(err)
	}
	net, err := exp.network()
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range []network.Switch{exp.Switch, net.Sw} {
		if sw.Ports != cfg.Switch.Ports || math.Float64bits(sw.Latency) != math.Float64bits(cfg.Switch.Latency) {
			t.Fatalf("switch %+v, want the configuration's %+v", sw, cfg.Switch)
		}
	}
}

func TestNetConfigErrors(t *testing.T) {
	cfg := heterogeneousConfig()
	for _, tc := range []struct {
		config  *core.Config
		net     string
		cluster int
	}{
		{&core.Config{}, "icn2", 0},
		{cfg, "icn3", 0},
		{cfg, "icn1", 7},
		{cfg, "ecn1", -1},
	} {
		e := NewExperiment(KindNetsim)
		e.Net.Config = tc.config
		e.Net.Net = tc.net
		e.Net.Cluster = tc.cluster
		if _, _, err := e.buildNet(); err == nil {
			t.Errorf("config %v net %q cluster %d accepted", tc.config, tc.net, tc.cluster)
		}
	}
}

func TestPlanSpecBuilders(t *testing.T) {
	p := &PlanSpec{
		SLOLatencyMs: 1.5, SLOUtil: 0.9, MinNodes: 64,
		NodeCost: 2, PortCosts: "FE=0.5,IB=3",
		Lambda: 123, MsgBytes: 2048,
	}
	sp, err := p.BuildSpace()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Lambda != 123 || sp.MessageBytes != 2048 {
		t.Fatalf("space overrides not applied: λ=%g M=%d", sp.Lambda, sp.MessageBytes)
	}
	slo, err := p.BuildSLO()
	if err != nil {
		t.Fatal(err)
	}
	if slo.MaxLatency != 1.5e-3 || slo.MaxUtil != 0.9 || slo.MinNodes != 64 {
		t.Fatalf("SLO not built: %+v", slo)
	}
	cm, err := p.BuildCost()
	if err != nil {
		t.Fatal(err)
	}
	if cm.NodeCost != 2 || cm.PortCost["FastEthernet"] != 0.5 || cm.PortCost["Infiniband"] != 3 {
		t.Fatalf("cost overrides not applied: %+v", cm)
	}
	// Untouched technologies keep their default prices.
	if cm.PortCost["GigabitEthernet"] != 0.1 {
		t.Fatalf("default GE price lost: %+v", cm)
	}
}

func TestPlanSpecSpaceFile(t *testing.T) {
	sp := plan.DefaultSpace()
	sp.Clusters = []int{2}
	sp.NodesPerCluster = []int{8}
	sp.Splits = nil
	path := filepath.Join(t.TempDir(), "space.json")
	if err := plan.SaveSpace(sp, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := plan.LoadSpace(path)
	if err != nil {
		t.Fatal(err)
	}
	p := &PlanSpec{Space: loaded, SLOLatencyMs: 2, SLOUtil: 0.95, NodeCost: 1, Lambda: 123}
	got, err := p.BuildSpace()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Clusters) != 1 || got.Clusters[0] != 2 || got.Splits != nil || got.Lambda != 123 {
		t.Fatalf("space file not honoured: %+v", got)
	}
	// The override applies to a copy: the spec's space stays as read.
	if p.Space.Lambda != sp.Lambda {
		t.Fatalf("BuildSpace modified the spec's space: λ=%g", p.Space.Lambda)
	}
	// Bad values are rejected.
	for i, bad := range []*PlanSpec{
		{Space: &plan.Space{}, SLOLatencyMs: 2, SLOUtil: 0.95, NodeCost: 1},
		{PortCosts: "FE", SLOLatencyMs: 2, SLOUtil: 0.95, NodeCost: 1},
		{PortCosts: "Zeta=1", SLOLatencyMs: 2, SLOUtil: 0.95, NodeCost: 1},
		{SLOLatencyMs: -2, SLOUtil: 0.95, NodeCost: 1},
	} {
		_, errSpace := bad.BuildSpace()
		_, errSLO := bad.BuildSLO()
		_, errCost := bad.BuildCost()
		if errSpace == nil && errSLO == nil && errCost == nil {
			t.Errorf("bad spec %d accepted: %+v", i, bad)
		}
	}
}

func TestSweepJobsDefaults(t *testing.T) {
	e := NewExperiment(KindSweep)
	labels, points, err := buildSweepJobs(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 9 || len(points) != 9 {
		t.Fatalf("default clusters sweep has %d points", len(points))
	}
	if labels[0] != "1" || labels[8] != "256" {
		t.Fatalf("labels = %v", labels)
	}
	e.Sweep.Var = "nope"
	if _, _, err := buildSweepJobs(e); err == nil {
		t.Fatal("unknown variable accepted")
	}
	for _, v := range []string{"arrival", "msg", "ports", "lambda", "locality"} {
		e := NewExperiment(KindSweep)
		e.Sweep.Var = v
		labels, points, err := buildSweepJobs(e)
		if err != nil {
			t.Fatalf("var %s: %v", v, err)
		}
		if len(labels) == 0 || len(labels) != len(points) {
			t.Fatalf("var %s: %d labels, %d points", v, len(labels), len(points))
		}
	}
}

// TestSweepOverConfigRejectsSystemVars: a system config fixes the
// cluster count, message size, ports and rate, so sweeping one of them
// over it is an error rather than identical points under different
// labels; the workload variables still sweep.
func TestSweepOverConfigRejectsSystemVars(t *testing.T) {
	for _, v := range []string{"clusters", "msg", "ports", "lambda"} {
		e := NewExperiment(KindSweep)
		e.System.Config = heterogeneousConfig()
		e.Sweep.Var = v
		if _, _, err := buildSweepJobs(e); err == nil || !strings.Contains(err.Error(), "fixes it") {
			t.Errorf("sweep of %s over a config: %v, want a refusal", v, err)
		}
	}
	for _, v := range []string{"arrival", "locality"} {
		e := NewExperiment(KindSweep)
		e.System.Config = heterogeneousConfig()
		e.Sweep.Var = v
		_, points, err := buildSweepJobs(e)
		if err != nil {
			t.Fatalf("sweep of %s over a config: %v", v, err)
		}
		for _, p := range points {
			if p.Cfg != e.System.Config {
				t.Fatalf("sweep of %s does not run the config", v)
			}
		}
	}
}

func TestExperimentKindsHaveDistinctDefaults(t *testing.T) {
	for _, k := range Kinds() {
		e := NewExperiment(k)
		if e.Kind != k || e.V != SpecVersion {
			t.Fatalf("kind %s: envelope %+v", k, e)
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("kind %s: %v", k, err)
		}
	}
	if err := (&Experiment{Kind: "warp"}).Validate(); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if err := (&Experiment{V: 2, Kind: KindAnalyze}).Validate(); err == nil {
		t.Fatal("future spec version accepted")
	}
}
