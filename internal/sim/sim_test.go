package sim

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/output"
	"hmscs/internal/progress"
	"hmscs/internal/rng"
	"hmscs/internal/scenario"
	"hmscs/internal/workload"
)

// smallCfg builds a light C=4 x N0=8 system that simulates quickly.
func smallCfg(t *testing.T, lambda float64, arch network.Architecture) *core.Config {
	t.Helper()
	cfg, err := core.NewSuperCluster(4, 8, lambda, network.GigabitEthernet,
		network.FastEthernet, arch, network.PaperSwitch, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func quickOpts(seed uint64, measured int) Options {
	o := DefaultOptions()
	o.Seed = seed
	o.WarmupMessages = 500
	o.MeasuredMessages = measured
	return o
}

func TestSimDeterministicAcrossRuns(t *testing.T) {
	cfg := smallCfg(t, 50, network.NonBlocking)
	a, err := Run(cfg, quickOpts(42, 2000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, quickOpts(42, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanLatency() != b.MeanLatency() {
		t.Fatalf("same seed gave different latencies: %v vs %v", a.MeanLatency(), b.MeanLatency())
	}
	if a.SimTime != b.SimTime || a.Generated != b.Generated {
		t.Fatal("same seed gave different run shapes")
	}
}

func TestSimDifferentSeedsDiffer(t *testing.T) {
	cfg := smallCfg(t, 50, network.NonBlocking)
	a, err := Run(cfg, quickOpts(1, 2000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, quickOpts(2, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanLatency() == b.MeanLatency() {
		t.Fatal("different seeds produced identical means (suspicious)")
	}
}

func TestSimLightLoadMatchesServiceTimes(t *testing.T) {
	// At negligible load the mean latency must approach the no-queueing
	// mix: (1-P)*T_I1 + P*(T_I2 + 2*T_E1).
	cfg := smallCfg(t, 0.01, network.NonBlocking)
	res, err := Run(cfg, quickOpts(7, 4000))
	if err != nil {
		t.Fatal(err)
	}
	centers, err := cfg.BuildCenters()
	if err != nil {
		t.Fatal(err)
	}
	sI1, sE1, sI2 := centers.ServiceTimes(1024)
	p := cfg.POut(0)
	want := (1-p)*sI1[0] + p*(sI2+2*sE1[0])
	got := res.MeanLatency()
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("light-load latency = %v, want about %v", got, want)
	}
}

func TestSimMeasuredCountAndWarmup(t *testing.T) {
	cfg := smallCfg(t, 50, network.NonBlocking)
	opts := quickOpts(3, 1500)
	opts.WarmupMessages = 300
	res, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured != 1500 {
		t.Fatalf("measured = %d, want 1500", res.Measured)
	}
	if res.Latency.Count() != 1500 {
		t.Fatalf("latency samples = %d", res.Latency.Count())
	}
	if res.Generated < 1800 {
		t.Fatalf("generated = %d, must cover warmup+measured", res.Generated)
	}
	if res.TimedOut {
		t.Fatal("run should not time out")
	}
}

func TestSimRecordSample(t *testing.T) {
	cfg := smallCfg(t, 50, network.NonBlocking)
	opts := quickOpts(4, 800)
	opts.RecordSample = true
	res, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sample) != 800 {
		t.Fatalf("sample length = %d", len(res.Sample))
	}
	sum := 0.0
	for _, v := range res.Sample {
		sum += v
	}
	if math.Abs(sum/800-res.MeanLatency()) > 1e-12 {
		t.Fatal("sample mean disagrees with accumulator")
	}
}

func TestSimServedConservation(t *testing.T) {
	// Every measured+warmup message passed either one ICN1 (local) or one
	// ICN2 (remote); in-flight messages at stop may add a few.
	cfg := smallCfg(t, 50, network.NonBlocking)
	res, err := Run(cfg, quickOpts(5, 3000))
	if err != nil {
		t.Fatal(err)
	}
	var icn1, icn2, ecn1 int64
	for _, c := range res.Centers {
		switch {
		case c.Name == "ICN2":
			icn2 += c.Served
		case len(c.Name) >= 4 && c.Name[:4] == "ICN1":
			icn1 += c.Served
		default:
			ecn1 += c.Served
		}
	}
	completed := res.Measured + 500 // + warmup
	if icn1+icn2 < completed {
		t.Fatalf("ICN1(%d)+ICN2(%d) served < completed %d", icn1, icn2, completed)
	}
	// Remote messages traverse two ECN1 stages and one ICN2.
	if ecn1 < 2*icn2-4 { // allow in-flight slack
		t.Fatalf("ECN1 served %d inconsistent with ICN2 %d", ecn1, icn2)
	}
	// Uniform traffic with C=4, N0=8: P = 24/31, so remote should dominate.
	if icn2 <= icn1 {
		t.Fatalf("remote (%d) should outnumber local (%d) at P=%v", icn2, icn1, cfg.POut(0))
	}
}

func TestSimClosedLoopCapsInFlight(t *testing.T) {
	// In closed-loop mode there can never be more in-flight messages than
	// processors; with heavy overload the effective lambda must sit well
	// below the configured lambda.
	cfg := smallCfg(t, 10000, network.NonBlocking) // grossly overloaded
	res, err := Run(cfg, quickOpts(6, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveLambda >= 10000*0.5 {
		t.Fatalf("effective lambda = %v, expected severe throttling", res.EffectiveLambda)
	}
	// Bottleneck must be pegged.
	maxU := 0.0
	for _, c := range res.Centers {
		if c.Utilization > maxU {
			maxU = c.Utilization
		}
	}
	if maxU < 0.9 {
		t.Fatalf("bottleneck utilisation = %v under overload", maxU)
	}
}

func TestSimOpenVsClosedLightLoad(t *testing.T) {
	// At light load, blocking sources barely matter: open and closed loop
	// must agree.
	cfg := smallCfg(t, 0.05, network.NonBlocking)
	closed, err := Run(cfg, quickOpts(8, 3000))
	if err != nil {
		t.Fatal(err)
	}
	o := quickOpts(8, 3000)
	o.OpenLoop = true
	open, err := Run(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	a, b := closed.MeanLatency(), open.MeanLatency()
	if math.Abs(a-b)/a > 0.1 {
		t.Fatalf("open %v vs closed %v diverge at light load", b, a)
	}
}

func TestSimBlockingSlower(t *testing.T) {
	nb, err := Run(smallCfg(t, 20, network.NonBlocking), quickOpts(9, 3000))
	if err != nil {
		t.Fatal(err)
	}
	bl, err := Run(smallCfg(t, 20, network.Blocking), quickOpts(9, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if bl.MeanLatency() <= nb.MeanLatency() {
		t.Fatalf("blocking %v not slower than non-blocking %v", bl.MeanLatency(), nb.MeanLatency())
	}
}

func TestSimMaxSimTime(t *testing.T) {
	cfg := smallCfg(t, 0.001, network.NonBlocking) // ~nothing happens
	opts := quickOpts(10, 100000)
	opts.MaxSimTime = 1.0
	res, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("run should have timed out")
	}
	if res.SimTime > 1.0+1e-9 {
		t.Fatalf("sim time %v exceeded limit", res.SimTime)
	}
}

func TestSimSingleCluster(t *testing.T) {
	cfg, err := core.NewSuperCluster(1, 16, 10, network.GigabitEthernet,
		network.FastEthernet, network.NonBlocking, network.PaperSwitch, 512)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, quickOpts(11, 2000))
	if err != nil {
		t.Fatal(err)
	}
	// All traffic is local: ICN2 and ECN1 must be idle.
	for _, c := range res.Centers {
		if c.Name != "ICN1[0]" && c.Served != 0 {
			t.Fatalf("centre %s served %d messages in a single-cluster system", c.Name, c.Served)
		}
	}
}

func TestSimHeterogeneousClusters(t *testing.T) {
	cfg := &core.Config{
		Clusters: []core.Cluster{
			{Nodes: 4, Lambda: 100, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
			{Nodes: 12, Lambda: 10, ICN1: network.FastEthernet, ECN1: network.FastEthernet},
		},
		ICN2:         network.GigabitEthernet,
		Arch:         network.NonBlocking,
		Switch:       network.PaperSwitch,
		MessageBytes: 512,
	}
	res, err := Run(cfg, quickOpts(12, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanLatency() <= 0 {
		t.Fatal("no latency measured")
	}
	// Cluster 0 generates 400/s vs cluster 1's 120/s: its ECN1 must be
	// busier per the asymmetric load.
	var u0, u1 float64
	for _, c := range res.Centers {
		if c.Name == "ECN1[0]" {
			u0 = c.Utilization
		}
		if c.Name == "ECN1[1]" {
			u1 = c.Utilization
		}
	}
	if u0 == 0 && u1 == 0 {
		t.Fatal("no ECN1 utilisation recorded")
	}
}

func TestSimCustomPatternLocalOnly(t *testing.T) {
	cfg := smallCfg(t, 20, network.NonBlocking)
	opts := quickOpts(13, 2000)
	opts.Pattern = workload.LocalBias{Locality: 1}
	res, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Centers {
		if c.Name == "ICN2" && c.Served != 0 {
			t.Fatalf("fully local pattern still sent %d messages through ICN2", c.Served)
		}
	}
}

func TestSimDeterministicServiceReducesLatency(t *testing.T) {
	// At moderate load M/D/1 waits are shorter than M/M/1 (PK formula),
	// so the deterministic-service ablation must report lower latency.
	cfg := smallCfg(t, 100, network.NonBlocking)
	expRes, err := Run(cfg, quickOpts(14, 5000))
	if err != nil {
		t.Fatal(err)
	}
	o := quickOpts(14, 5000)
	o.ServiceDist = rng.Deterministic{Value: 1}
	detRes, err := Run(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	if detRes.MeanLatency() >= expRes.MeanLatency() {
		t.Fatalf("deterministic service latency %v not below exponential %v",
			detRes.MeanLatency(), expRes.MeanLatency())
	}
}

func TestSimVariableMessageSizes(t *testing.T) {
	cfg := smallCfg(t, 10, network.NonBlocking)
	opts := quickOpts(15, 2000)
	opts.SizeDist = workload.Bimodal{Small: 64, Large: 4096, SmallProb: 0.9}
	res, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanLatency() <= 0 {
		t.Fatal("no latency measured")
	}
}

func TestSimRejectsInvalid(t *testing.T) {
	if _, err := Run(&core.Config{}, DefaultOptions()); err == nil {
		t.Fatal("invalid config accepted")
	}
	cfg := smallCfg(t, 10, network.NonBlocking)
	opts := DefaultOptions()
	opts.WarmupMessages = -1
	if _, err := Run(cfg, opts); err == nil {
		t.Fatal("negative warmup accepted")
	}
}

func TestRunReplications(t *testing.T) {
	cfg := smallCfg(t, 50, network.NonBlocking)
	opts := quickOpts(100, 1500)
	agg, err := replicate(cfg, opts, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.PerReplication) != 5 {
		t.Fatalf("replications = %d", len(agg.PerReplication))
	}
	if agg.CI95 <= 0 {
		t.Fatalf("CI95 = %v", agg.CI95)
	}
	// Replications must differ (independent seeds) but agree loosely.
	for i := 1; i < 5; i++ {
		if agg.PerReplication[i] == agg.PerReplication[0] {
			t.Fatal("replications identical; seed derivation broken")
		}
	}
	if agg.MeanLatency <= 0 || agg.Throughput <= 0 {
		t.Fatal("aggregate metrics missing")
	}
	if _, err := replicate(cfg, opts, 0, 0); err == nil {
		t.Fatal("zero replications accepted")
	}
}

func TestLayout(t *testing.T) {
	cfg := &core.Config{
		Clusters: []core.Cluster{
			{Nodes: 3, Lambda: 1, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
			{Nodes: 5, Lambda: 1, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
			{Nodes: 2, Lambda: 1, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
		},
		ICN2: network.FastEthernet, Arch: network.NonBlocking,
		Switch: network.PaperSwitch, MessageBytes: 64,
	}
	l := newLayout(cfg)
	if l.TotalNodes() != 10 || l.NumClusters() != 3 {
		t.Fatalf("layout totals wrong: %d nodes, %d clusters", l.TotalNodes(), l.NumClusters())
	}
	wantCluster := []int{0, 0, 0, 1, 1, 1, 1, 1, 2, 2}
	for node, want := range wantCluster {
		if got := l.ClusterOf(node); got != want {
			t.Fatalf("ClusterOf(%d) = %d, want %d", node, got, want)
		}
	}
	lo, hi := l.ClusterRange(1)
	if lo != 3 || hi != 8 {
		t.Fatalf("ClusterRange(1) = [%d,%d)", lo, hi)
	}
}

func TestLatencyCIBatchMeans(t *testing.T) {
	cfg := smallCfg(t, 100, network.NonBlocking)
	opts := quickOpts(31, 4000)
	opts.RecordSample = true
	res, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := res.LatencyCI()
	if err != nil {
		t.Fatal(err)
	}
	if ci <= 0 {
		t.Fatalf("CI = %v", ci)
	}
	// The batch-means CI must not be smaller than the (optimistic) naive
	// standard-error-based interval by more than numerical noise.
	naive := res.Latency.CI(0.95)
	if ci < naive*0.5 {
		t.Fatalf("batch-means CI %v implausibly below naive %v", ci, naive)
	}
	// Without a recorded sample the method refuses.
	plain, err := Run(cfg, quickOpts(31, 500))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.LatencyCI(); err == nil {
		t.Fatal("LatencyCI without sample accepted")
	}
}

// TestSimSteadyStateAllocationFree pins DESIGN.md §3's claim that the
// event loop allocates nothing per message: a closed-loop run measuring
// 20 000 messages may allocate only a small constant more than one
// measuring 2 000. The configuration saturates ICN2, so its queue stays
// long through busy periods far longer than the short run's. Simulators
// are built outside the measurement, so only Run's own allocations count
// (set-up formats centre names through fmt, whose pooled buffers the race
// detector drops at random).
func TestSimSteadyStateAllocationFree(t *testing.T) {
	cfg, err := core.NewSuperCluster(16, 16, 1000, network.GigabitEthernet,
		network.FastEthernet, network.NonBlocking, network.PaperSwitch, 1024)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(measured int) float64 {
		const runs = 3
		sims := make([]*Simulator, runs+1) // AllocsPerRun adds a warm-up call
		for i := range sims {
			if sims[i], err = New(cfg, quickOpts(11, measured)); err != nil {
				t.Fatal(err)
			}
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if _, err := sims[next].Run(); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	short, long := allocs(2000), allocs(20000)
	const slack = 4
	if long > short+slack {
		t.Fatalf("allocations grew with run length: %v allocs at 2 000 messages, %v at 20 000", short, long)
	}
}

// wideCfg is an 8-cluster configuration: wide enough that every failure
// target of the scenario suites (cluster:7, icn1:5) exists.
func wideCfg(t *testing.T, lambda float64, arch network.Architecture) *core.Config {
	t.Helper()
	cfg, err := core.NewSuperCluster(8, 4, lambda, network.GigabitEthernet,
		network.FastEthernet, arch, network.PaperSwitch, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// dynOpts is the dynamic-run counterpart of quickOpts: the compiled
// timeline supplies the horizon, so message cutoffs stay at their
// defaults (the engine overrides them anyway).
func dynOpts(seed uint64, cs *scenario.CompiledSim) Options {
	o := DefaultOptions()
	o.Seed = seed
	o.RecordSample = true
	o.Scenario = cs
	return o
}

// requireIdenticalDynamic extends the bit-identity assertion to the
// dynamic-run outputs: the timestamped sample vector feeding the
// transient estimator and the failure-policy counters.
func requireIdenticalDynamic(t *testing.T, label string, a, b *Result) {
	t.Helper()
	requireIdenticalResults(t, label, a, b)
	if a.Dropped != b.Dropped || a.Rerouted != b.Rerouted {
		t.Fatalf("%s: policy counters differ: drop %d/%d, reroute %d/%d",
			label, a.Dropped, b.Dropped, a.Rerouted, b.Rerouted)
	}
	if len(a.SampleTimes) != len(b.SampleTimes) {
		t.Fatalf("%s: sample-time lengths differ: %d vs %d", label, len(a.SampleTimes), len(b.SampleTimes))
	}
	for i := range a.SampleTimes {
		if a.SampleTimes[i] != b.SampleTimes[i] {
			t.Fatalf("%s: sample time %d differs: %v vs %v", label, i, a.SampleTimes[i], b.SampleTimes[i])
		}
	}
}

// runResults drives one configuration's replications through the
// driver's fixed schedule, returning them in replication order with
// their sample series intact (RunBatchCtx's transient fold would
// release them).
func runResults(ctx context.Context, cfg *core.Config, opts Options, n, parallelism int, prog progress.Func) ([]*Result, error) {
	states, err := runRounds(ctx, []Unit{{Cfg: cfg, Opts: opts}}, n, nil, parallelism, prog, nil)
	if err != nil {
		return nil, err
	}
	return states[0].results, nil
}

// replicate runs n fixed replications of one configuration through
// RunBatchCtx and returns their aggregate.
func replicate(cfg *core.Config, opts Options, n, parallelism int) (*Replicated, error) {
	sums, err := RunBatchCtx(context.Background(), []Unit{{Cfg: cfg, Opts: opts}}, Schedule{Reps: n}, parallelism, nil, nil)
	if err != nil {
		return nil, err
	}
	return sums[0].Agg, nil
}

// TestScenarioDropFaultAndHorizonRepair pins two timeline edge cases.
// An ICN2 failure under the drop policy evicts the work queued there
// (ICN2 is the bottleneck at this load, so its queue is non-empty at the
// fail instant). A repair at exactly the horizon still parses and runs,
// the clock closes at the horizon, and because nothing is measured after
// the last instant the run equals the same timeline without that repair.
func TestScenarioDropFaultAndHorizonRepair(t *testing.T) {
	cfg := wideCfg(t, 400, network.NonBlocking)
	built, err := cfg.BuildCenters()
	if err != nil {
		t.Fatal(err)
	}
	w := built.ICN2.MeanServiceTime(cfg.MessageBytes)
	fail := scenario.Event{TS: 512 * w, Action: "fail", Target: "icn2", Policy: "drop"}
	run := func(events ...scenario.Event) *Result {
		cs, err := scenario.CompileSim(&scenario.Spec{HorizonS: 2048 * w, Events: events}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg, dynOpts(23, cs))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	repaired := run(fail, scenario.Event{TS: 2048 * w, Action: "repair", Target: "icn2"})
	if repaired.Dropped == 0 {
		t.Fatal("expected the second-stage failure to drop in-flight work")
	}
	if repaired.SimTime != 2048*w {
		t.Fatalf("SimTime = %v, want the horizon %v", repaired.SimTime, 2048*w)
	}
	requireIdenticalDynamic(t, "repair-at-horizon", run(fail), repaired)
}

// TestScenarioReplicationsComposeWithParallel runs a dynamic replication
// set on one worker and on eight: each replication's Result — down to the
// timestamped samples the transient estimator folds — must match, so
// time-sliced output is identical however the work is spread across
// cores.
func TestScenarioReplicationsComposeWithParallel(t *testing.T) {
	cfg := wideCfg(t, 40, network.NonBlocking)
	spec := &scenario.Spec{HorizonS: 0.3, SLOLatencyMS: 50, Events: []scenario.Event{
		{TS: 0.1, Action: "fail", Target: "cluster:largest", Policy: "drop"},
		{TS: 0.2, Action: "repair", Target: "cluster:largest"},
	}}
	cs, err := scenario.CompileSim(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := dynOpts(5, cs)
	base, err := runResults(context.Background(), cfg, opts, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runResults(context.Background(), cfg, opts, 3, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(base) {
		t.Fatalf("%d replications, want %d", len(got), len(base))
	}
	for r := range got {
		requireIdenticalDynamic(t, "replication", base[r], got[r])
	}
}

// TestScenarioCancelMidFaultDrainsPool extends the replication pool's
// goroutine-leak pin to dynamic runs: the timeline fails the largest
// cluster almost immediately and repairs it only at the horizon, so a
// cancellation fired after the first completed replication lands while
// every other running replication still has its repair event pending.
// The pool must drain fully before the driver returns.
func TestScenarioCancelMidFaultDrainsPool(t *testing.T) {
	cfg := wideCfg(t, 40, network.NonBlocking)
	spec := &scenario.Spec{HorizonS: 0.4, Events: []scenario.Event{
		{TS: 0.01, Action: "fail", Target: "cluster:largest", Policy: "requeue"},
		{TS: 0.39, Action: "repair", Target: "cluster:largest"},
	}}
	cs, err := scenario.CompileSim(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var done int32
	_, err = runResults(ctx, cfg, dynOpts(7, cs), 64, 4, func(progress.Event) {
		if atomic.AddInt32(&done, 1) == 1 {
			cancel() // mid-fault: later replications' repairs are pending
		}
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt32(&done); n > 60 {
		t.Fatalf("%d of 64 replications ran after cancellation", n)
	}
	// No worker goroutine may outlive the call; allow the runtime a
	// moment to reap the cancelled workers.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before, %d after — pool leaked", before, after)
	}
}

// TestReplicationsComposeWithParallel pins the replication aggregate of
// the 8-cluster configuration to the same values on one worker and on
// eight.
func TestReplicationsComposeWithParallel(t *testing.T) {
	cfg := wideCfg(t, 40, network.NonBlocking)
	opts := quickOpts(100, 600)
	base, err := replicate(cfg, opts, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := replicate(cfg, opts, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got.MeanLatency != base.MeanLatency || got.CI95 != base.CI95 ||
		got.Throughput != base.Throughput || got.BottleneckUtilization != base.BottleneckUtilization {
		t.Fatalf("parallelism 8 changed the aggregate: %+v vs %+v", got, base)
	}
}

// TestPrecisionComposesWithParallel extends the precision driver's
// parallelism invariance to the 8-cluster configuration: the adaptive
// stopping rule must make the same decisions — same estimate, same
// replication count, same total event count — on one worker and on
// eight.
func TestPrecisionComposesWithParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two adaptive replication sets")
	}
	cfg := wideCfg(t, 100, network.NonBlocking)
	opts := quickOpts(3, 4000)
	prec := output.Precision{RelWidth: 0.05, MaxReps: 24}
	base, err := runPrecision(cfg, opts, prec, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runPrecision(cfg, opts, prec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate != base.Estimate ||
		got.MeanLatency != base.MeanLatency ||
		got.TotalGenerated != base.TotalGenerated ||
		got.TruncatedFrac != base.TruncatedFrac {
		t.Fatalf("parallelism 8 diverged from sequential:\n%+v\nvs\n%+v", got.Estimate, base.Estimate)
	}
	if base.Estimate.Reps < 3 {
		t.Fatalf("implausible estimate: %+v", base.Estimate)
	}
}
