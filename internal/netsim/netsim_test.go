package netsim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"hmscs/internal/network"
	"hmscs/internal/rng"
	"hmscs/internal/scenario"
	"hmscs/internal/sim"
	"hmscs/internal/topology"
	"hmscs/internal/workload"
)

var det = rng.Deterministic{Value: 1}

// detOpts is a run's options with every link serving in exactly its mean
// time.
func detOpts(warmup, measured int, seed uint64) sim.Options {
	return sim.Options{WarmupMessages: warmup, MeasuredMessages: measured, Seed: seed, ServiceDist: det}
}

func buildFT(t *testing.T, n, pr int) *Network {
	t.Helper()
	sw := network.Switch{Ports: pr, Latency: 10e-6}
	net, err := BuildFatTree(n, pr, network.GigabitEthernet, sw)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func buildLA(t *testing.T, n, pr int) *Network {
	t.Helper()
	sw := network.Switch{Ports: pr, Latency: 10e-6}
	net, err := BuildLinearArray(n, pr, network.GigabitEthernet, sw)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestFatTreeStructurePaperExample(t *testing.T) {
	// Figure 3: N=16, Pr=8 => 4 leaves (DL=4), 2 spines (DL=8).
	net := buildFT(t, 16, 8)
	if net.numLeaves != 4 || net.numSpines != 2 {
		t.Fatalf("leaves=%d spines=%d, want 4/2", net.numLeaves, net.numSpines)
	}
	// Total switches must match eq. 13 (k=6).
	ft, err := topology.NewFatTree(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if net.numLeaves+net.numSpines != ft.Switches() {
		t.Fatalf("netsim switches %d != eq.13 %d", net.numLeaves+net.numSpines, ft.Switches())
	}
	// Links: per endpoint 2, plus 2 per leaf-spine pair.
	wantLinks := 2*16 + 2*4*2
	if net.Links() != wantLinks {
		t.Fatalf("links = %d, want %d", net.Links(), wantLinks)
	}
}

func TestFatTreeSingleSwitch(t *testing.T) {
	net := buildFT(t, 8, 24)
	if net.numLeaves != 1 || net.numSpines != 0 {
		t.Fatalf("single-switch regime wrong: %d/%d", net.numLeaves, net.numSpines)
	}
	st := rng.NewStream(2)
	path, hops := net.route(st, 0, 5)
	if hops != 1 || len(path) != 2 {
		t.Fatalf("single-switch route: %d links, %d switches", len(path), hops)
	}
}

func TestFatTreeRouteHops(t *testing.T) {
	net := buildFT(t, 16, 8)
	st := rng.NewStream(3)
	// Same leaf (0 and 1 are under leaf 0): 1 switch.
	_, hops := net.route(st, 0, 1)
	if hops != 1 {
		t.Fatalf("same-leaf hops = %d, want 1", hops)
	}
	// Different leaves: 2d-1 = 3 switches.
	_, hops = net.route(st, 0, 15)
	if hops != 3 {
		t.Fatalf("cross-leaf hops = %d, want 3 (2d-1)", hops)
	}
}

func TestFatTreeDepth3Rejected(t *testing.T) {
	// N=1024, Pr=8 would need more than two stages.
	sw := network.Switch{Ports: 8, Latency: 10e-6}
	if _, err := BuildFatTree(1024, 8, network.GigabitEthernet, sw); err == nil {
		t.Fatal("depth-3 fat-tree accepted")
	}
}

func TestLinearArrayStructure(t *testing.T) {
	net := buildLA(t, 256, 24)
	la, err := topology.NewLinearArray(256, 24)
	if err != nil {
		t.Fatal(err)
	}
	if net.numLeaves != la.Switches() {
		t.Fatalf("chain switches %d != eq.17 %d", net.numLeaves, la.Switches())
	}
	if len(net.chainRight) != 10 || len(net.chainLeft) != 10 {
		t.Fatalf("chain links %d/%d, want 10/10", len(net.chainRight), len(net.chainLeft))
	}
}

func TestLinearArrayRoute(t *testing.T) {
	net := buildLA(t, 48, 8) // 6 switches
	st := rng.NewStream(4)
	// Host 0 (switch 0) to host 47 (switch 5): 6 switches traversed.
	path, hops := net.route(st, 0, 47)
	if hops != 6 {
		t.Fatalf("end-to-end hops = %d, want 6", hops)
	}
	if len(path) != 2+5 {
		t.Fatalf("path links = %d, want 7", len(path))
	}
	// Reverse direction.
	_, hops = net.route(st, 47, 0)
	if hops != 6 {
		t.Fatalf("reverse hops = %d", hops)
	}
	// Same switch.
	_, hops = net.route(st, 0, 7)
	if hops != 1 {
		t.Fatalf("same-switch hops = %d, want 1", hops)
	}
}

func TestLinearArrayMeanHopsMatchesEq19(t *testing.T) {
	// Under uniform traffic over k=12 chain switches, the measured mean
	// number of switches traversed is E[|a−b|] + 1 = (k²−1)/(3k) + 1
	// (netsim counts the entry switch). The paper's eq. 19 uses (k+1)/3,
	// the mean inter-switch distance conditioned on distinct switches —
	// the two agree to within the conditioning correction.
	const k = 12.0
	net := buildLA(t, 96, 8)
	res, err := net.Run(1, 64, detOpts(500, 20000, 5))
	if err != nil {
		t.Fatal(err)
	}
	got := res.SwitchHops.Mean()
	exact := (k*k-1)/(3*k) + 1
	if math.Abs(got-exact)/exact > 0.03 {
		t.Fatalf("mean switches = %v, uniform-traffic expectation %v", got, exact)
	}
	// eq. 19's distance model stays within 20% of the measured distance.
	eq19 := (k + 1) / 3
	if math.Abs((got-1)-eq19)/eq19 > 0.2 {
		t.Fatalf("measured distance %v strays from eq. 19's %v", got-1, eq19)
	}
}

func TestFatTreeMeanHops(t *testing.T) {
	// With 16 nodes on 4 leaves, 3/15 of destinations share the source's
	// leaf: E[hops] = 1*(3/15) + 3*(12/15) = 2.6.
	net := buildFT(t, 16, 8)
	res, err := net.Run(1, 64, detOpts(500, 20000, 6))
	if err != nil {
		t.Fatal(err)
	}
	want := 2.6
	if math.Abs(res.SwitchHops.Mean()-want) > 0.1 {
		t.Fatalf("mean hops = %v, want about %v", res.SwitchHops.Mean(), want)
	}
}

func TestZeroLoadLatencyMatchesContentionFree(t *testing.T) {
	for _, build := range []func(*testing.T, int, int) *Network{buildFT, buildLA} {
		net := build(t, 32, 8)
		res, err := net.Run(0.1, 1024, detOpts(100, 3000, 7))
		if err != nil {
			t.Fatal(err)
		}
		// At 0.1 msg/s contention is nil; mean latency must sit between
		// the same-switch minimum and the max-distance ContentionFreeLatency
		// scale (within a factor accounting for path-length mix).
		cf := net.ContentionFreeLatency(1024)
		got := res.Latency.Mean()
		if got <= 0 || got > 2*cf {
			t.Fatalf("%v: zero-load latency %v vs contention-free %v", net.Kind, got, cf)
		}
	}
}

// TestTheorem1FullBisection is the structural headline: at a load where
// the fat-tree's fabric links stay comfortably below saturation, the
// linear array's chain links are pinned at 100% (bisection width 1).
func TestTheorem1FullBisection(t *testing.T) {
	const n, pr = 32, 8 // 8 leaves x 4 spines: the largest 2-stage Pr=8 build
	// Fast Ethernet with 1KB messages makes transmission (97.5µs/hop)
	// dominate the fixed latencies, and 50k msg/s of offered load per
	// endpoint is far beyond what the width-1 chain can carry — so the
	// chain must saturate while the fat-tree fabric keeps pace with its
	// edge links.
	lambda := 50000.0
	sw := network.Switch{Ports: pr, Latency: 10e-6}
	ft, err := BuildFatTree(n, pr, network.FastEthernet, sw)
	if err != nil {
		t.Fatal(err)
	}
	la, err := BuildLinearArray(n, pr, network.FastEthernet, sw)
	if err != nil {
		t.Fatal(err)
	}
	ftRes, err := ft.Run(lambda, 1024, detOpts(1000, 15000, 8))
	if err != nil {
		t.Fatal(err)
	}
	laRes, err := la.Run(lambda, 1024, detOpts(1000, 15000, 8))
	if err != nil {
		t.Fatal(err)
	}
	// Fat-tree: fabric never hotter than the edge by more than a whisker
	// (full bisection, Theorem 1).
	ftHost, ftFabric := LinkUtilization(ftRes, n)
	if ftFabric > ftHost+0.1 {
		t.Fatalf("fat-tree fabric (%v) hotter than edge (%v): Theorem 1 violated", ftFabric, ftHost)
	}
	// Linear array: the chain is the bottleneck and saturates.
	if _, laFabric := LinkUtilization(laRes, n); laFabric < 0.95 {
		t.Fatalf("linear-array chain utilisation %v, expected saturation", laFabric)
	}
	// The latency gap is structural. (Closed-loop sources bound each
	// queue by the population, so the gap is solid rather than unbounded
	// — the paper's 1.4x-3.1x band, not a blow-up.)
	if laRes.Latency.Mean() < 1.4*ftRes.Latency.Mean() {
		t.Fatalf("blocking network latency %v not decisively worse than fat-tree %v",
			laRes.Latency.Mean(), ftRes.Latency.Mean())
	}
	// Throughput ordering too: the chain's width-1 bisection caps it.
	if laRes.Throughput > 0.8*ftRes.Throughput {
		t.Fatalf("linear array throughput %v not decisively below fat-tree %v",
			laRes.Throughput, ftRes.Throughput)
	}
}

func TestRunValidation(t *testing.T) {
	net := buildFT(t, 8, 8)
	if _, err := net.Run(0, 64, detOpts(0, 10, 0)); err == nil {
		t.Error("zero lambda accepted")
	}
	net = buildFT(t, 8, 8)
	if _, err := net.Run(1, 0, detOpts(0, 10, 0)); err == nil {
		t.Error("zero message size accepted")
	}
	net = buildFT(t, 8, 8)
	if _, err := net.Run(1, 64, detOpts(0, 0, 0)); err == nil {
		t.Error("zero measured accepted")
	}
	net = buildFT(t, 8, 8)
	if _, err := net.Run(1, 64, detOpts(-1, 10, 0)); err == nil {
		t.Error("negative warmup accepted")
	}
}

func TestRunMaxSimTime(t *testing.T) {
	net := buildFT(t, 8, 8)
	o := detOpts(0, 1000000, 9)
	o.MaxSimTime = 0.5
	res, err := net.Run(0.001, 64, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("run should have timed out")
	}
}

func TestBuildValidation(t *testing.T) {
	sw := network.Switch{Ports: 8, Latency: 1e-6}
	if _, err := BuildFatTree(1, 8, network.GigabitEthernet, sw); err == nil {
		t.Error("1 endpoint accepted")
	}
	if _, err := BuildLinearArray(4, 6, network.GigabitEthernet, sw); err == nil {
		t.Error("pr/switch-port mismatch accepted")
	}
	if _, err := BuildFatTree(4, 8, network.Technology{}, sw); err == nil {
		t.Error("invalid technology accepted")
	}
	if FatTree.String() != "fat-tree" || LinearArray.String() != "linear-array" {
		t.Error("kind strings wrong")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	mk := func() *sim.Result {
		net := buildFT(t, 16, 8)
		res, err := net.Run(100, 256, detOpts(100, 2000, 11))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.Latency.Mean() != b.Latency.Mean() || a.Throughput != b.Throughput {
		t.Fatal("netsim not reproducible under a fixed seed")
	}
}

// TestWorkloadZeroValueBitIdentical pins the unification's compatibility
// contract: the zero-value workload (Poisson, uniform, fixed size) must be
// bit-identical to passing the paper's axes explicitly.
func TestWorkloadZeroValueBitIdentical(t *testing.T) {
	runWith := func(arrival workload.Arrival, pattern workload.Pattern) *sim.Result {
		net := buildFT(t, 16, 8)
		o := detOpts(100, 2000, 3)
		o.Arrival, o.Pattern = arrival, pattern
		res, err := net.Run(200, 256, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := runWith(nil, nil)
	b := runWith(workload.Poisson{}, workload.Uniform{})
	if a.Latency.Mean() != b.Latency.Mean() || a.Latency.Count() != b.Latency.Count() ||
		a.Throughput != b.Throughput || a.SwitchHops.Mean() != b.SwitchHops.Mean() {
		t.Fatal("explicit paper workload differs from zero value")
	}
}

// TestNetworkImplementsSystem checks the switch-as-cluster layout exposed
// to destination patterns.
func TestNetworkImplementsSystem(t *testing.T) {
	var sys workload.System = buildFT(t, 16, 8) // 4 leaves of 4 hosts
	if sys.TotalNodes() != 16 || sys.NumClusters() != 4 {
		t.Fatalf("layout %d/%d, want 16/4", sys.TotalNodes(), sys.NumClusters())
	}
	if sys.ClusterOf(0) != 0 || sys.ClusterOf(15) != 3 {
		t.Fatal("ClusterOf wrong")
	}
	if lo, hi := sys.ClusterRange(2); lo != 8 || hi != 12 {
		t.Fatalf("ClusterRange(2) = [%d,%d), want [8,12)", lo, hi)
	}
	// Linear array: 24 endpoints on 8-port switches = 3 chain switches.
	sys = buildLA(t, 20, 8) // last switch short: 8,8,4
	if sys.NumClusters() != 3 {
		t.Fatalf("chain clusters = %d, want 3", sys.NumClusters())
	}
	if lo, hi := sys.ClusterRange(2); lo != 16 || hi != 20 {
		t.Fatalf("short last switch range = [%d,%d), want [16,20)", lo, hi)
	}
}

// TestHotspotPatternConcentratesLoad runs a hotspot workload at switch
// level — the scenario the private traffic source could not express — and
// checks the hot endpoint's downlink dominates.
func TestHotspotPatternConcentratesLoad(t *testing.T) {
	net := buildFT(t, 16, 8)
	o := detOpts(200, 4000, 4)
	o.Pattern = workload.Hotspot{Node: 0, Fraction: 0.8}
	res, err := net.Run(500, 256, o)
	if err != nil {
		t.Fatal(err)
	}
	hotDown := res.Centers[net.hostDown[0]].Utilization
	otherDown := res.Centers[net.hostDown[9]].Utilization
	if hotDown < 4*otherDown {
		t.Fatalf("hot downlink util %.3f not dominating other %.3f", hotDown, otherDown)
	}
	if res.Latency.Count() != 4000 {
		t.Fatalf("measured %d", res.Latency.Count())
	}
}

// TestBurstyArrivalsRaiseSwitchLatency: the arrival axis reaches the
// switch-level simulator too — MMPP at equal offered load must congest the
// fabric more than Poisson.
func TestBurstyArrivalsRaiseSwitchLatency(t *testing.T) {
	run := func(arr workload.Arrival) float64 {
		net := buildLA(t, 24, 8)
		o := detOpts(300, 4000, 5)
		o.Arrival = arr
		res, err := net.Run(1500, 1024, o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency.Mean()
	}
	mmpp, err := workload.NewMMPP(10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	poisson, bursty := run(nil), run(mmpp)
	if bursty <= poisson {
		t.Fatalf("MMPP latency %.6fs not above Poisson %.6fs at equal load", bursty, poisson)
	}
}

// requireIdenticalNetResults asserts bit-identity of every Result field,
// including the raw sample vector.
func requireIdenticalNetResults(t *testing.T, label string, want, got *sim.Result) {
	t.Helper()
	if want.Latency.Mean() != got.Latency.Mean() || want.Latency.Count() != got.Latency.Count() ||
		want.Latency.Variance() != got.Latency.Variance() {
		t.Fatalf("%s: latency diverged: %v/%d vs %v/%d", label,
			want.Latency.Mean(), want.Latency.Count(), got.Latency.Mean(), got.Latency.Count())
	}
	if want.SwitchHops.Mean() != got.SwitchHops.Mean() || want.SwitchHops.Count() != got.SwitchHops.Count() {
		t.Fatalf("%s: switch hops diverged", label)
	}
	if want.Throughput != got.Throughput {
		t.Fatalf("%s: throughput %v vs %v", label, want.Throughput, got.Throughput)
	}
	if !reflect.DeepEqual(want.Centers, got.Centers) {
		t.Fatalf("%s: link statistics diverged:\n%+v\nvs\n%+v", label, want.Centers, got.Centers)
	}
	if want.TimedOut != got.TimedOut {
		t.Fatalf("%s: TimedOut %v vs %v", label, want.TimedOut, got.TimedOut)
	}
	if len(want.Sample) != len(got.Sample) {
		t.Fatalf("%s: sample lengths %d vs %d", label, len(want.Sample), len(got.Sample))
	}
	for i := range want.Sample {
		if want.Sample[i] != got.Sample[i] {
			t.Fatalf("%s: sample[%d] %v vs %v", label, i, want.Sample[i], got.Sample[i])
		}
	}
}

// requireIdenticalNetDynamic extends the bit-identity assertion to the
// dynamic-run outputs: the slice bins feeding the transient estimator
// and the drop counter.
func requireIdenticalNetDynamic(t *testing.T, label string, a, b *sim.Result) {
	t.Helper()
	requireIdenticalNetResults(t, label, a, b)
	if a.Dropped != b.Dropped {
		t.Fatalf("%s: drop counters differ: %d vs %d", label, a.Dropped, b.Dropped)
	}
	if !slices.Equal(a.SliceCounts, b.SliceCounts) {
		t.Fatalf("%s: slice counts differ: %v vs %v", label, a.SliceCounts, b.SliceCounts)
	}
	if !slices.EqualFunc(a.SliceSums, b.SliceSums, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
		t.Fatalf("%s: slice sums differ: %v vs %v", label, a.SliceSums, b.SliceSums)
	}
}

// runNetDyn compiles the spec against the network build returns and
// runs it.
func runNetDyn(t *testing.T, build func(t *testing.T) *Network, spec *scenario.Spec, seed uint64) *sim.Result {
	t.Helper()
	n := build(t)
	cn, err := scenario.CompileNet(spec, n.Topo())
	if err != nil {
		t.Fatal(err)
	}
	o := detOpts(0, 1, seed)
	o.RecordSample, o.Scenario = true, cn
	res, err := n.Run(300, 256, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestNetScenarioRepairAtHorizon pins the horizon edge of a switch-level
// timeline: a spine repair at exactly the horizon still parses and runs,
// and because nothing is measured after the last instant the run equals
// the same timeline without that repair.
func TestNetScenarioRepairAtHorizon(t *testing.T) {
	w := 256 * network.GigabitEthernet.Beta() // one mean link transmission
	fail := scenario.Event{TS: 16384 * w, Action: "fail", Target: "spine:0", Policy: "drop"}
	ft := func(t *testing.T) *Network { return buildFT(t, 32, 8) }
	run := func(events ...scenario.Event) *sim.Result {
		return runNetDyn(t, ft, &scenario.Spec{HorizonS: 65536 * w, Events: events}, 29)
	}
	repaired := run(fail, scenario.Event{TS: 65536 * w, Action: "repair", Target: "spine:0"})
	if repaired.Measured == 0 || len(repaired.SliceCounts) == 0 {
		t.Fatal("dynamic run binned no latencies")
	}
	requireIdenticalNetDynamic(t, "repair-at-horizon", run(fail), repaired)
}

// TestNetScenarioRepeatable pins per-replication determinism: the same
// seed gives the same dynamic Result on one network run twice, and a
// different seed gives a different sample path (the runner runs every
// replication on one network with derived seeds).
func TestNetScenarioRepeatable(t *testing.T) {
	shared := buildFT(t, 32, 8)
	ft := func(t *testing.T) *Network { return shared }
	spec := &scenario.Spec{HorizonS: 0.1, Events: []scenario.Event{
		{TS: 0.03, Action: "fail", Target: "spine:0", Policy: "drop"},
		{TS: 0.07, Action: "repair", Target: "spine:0"},
	}}
	a := runNetDyn(t, ft, spec, 41)
	b := runNetDyn(t, ft, spec, 41)
	requireIdenticalNetDynamic(t, "same-seed", a, b)
	c := runNetDyn(t, ft, spec, 42)
	if a.Measured == c.Measured && a.Latency.Mean() == c.Latency.Mean() {
		t.Fatal("different seeds gave an identical dynamic sample path")
	}
}

// route returns src->dst's link ids in a fresh slice and the switches
// crossed; the simulator routes into its pooled route slab.
func (n *Network) route(st *rng.Stream, src, dst int) ([]int32, int) {
	path, switches, _ := n.Route(nil, st, src, dst, nil)
	return path, int(switches)
}

// TestSharedNetworkConcurrentRuns pins that a run only reads its
// network: replications running at once on one network give the
// results they give one at a time, bit for bit.
func TestSharedNetworkConcurrentRuns(t *testing.T) {
	n := buildLA(t, 40, 8)
	run := func(seed uint64) *sim.Result {
		o := detOpts(100, 1500, seed)
		o.RecordSample = true
		res, err := n.Run(2000, 512, o)
		if err != nil {
			t.Error(err)
		}
		return res
	}
	const reps = 4
	want := make([]*sim.Result, reps)
	for i := range want {
		want[i] = run(uint64(i + 1))
	}
	got := make([]*sim.Result, reps)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(uint64(i + 1))
		}()
	}
	wg.Wait()
	for i := range want {
		if want[i] == nil || got[i] == nil {
			t.Fatal("a run failed")
		}
		requireIdenticalNetResults(t, fmt.Sprintf("seed %d", i+1), want[i], got[i])
	}
}
