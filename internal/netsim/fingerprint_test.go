package netsim_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hmscs/internal/core"
	"hmscs/internal/netsim"
	"hmscs/internal/network"
	"hmscs/internal/rng"
	"hmscs/internal/scenario"
	"hmscs/internal/sim"
	"hmscs/internal/stats"
	"hmscs/internal/telemetry"
	"hmscs/internal/trace"
	"hmscs/internal/workload"
)

// engineCase is one replication TestEngineFingerprint pins: it runs either
// engine with a telemetry collector attached and returns the result.
type engineCase struct {
	name string
	run  func(t *testing.T, col *telemetry.Collector) (*sim.Result, *trace.Recorder)
}

// fingerprintConfig is a heterogeneous three-cluster system: unequal
// sizes, rates and technologies, so every centre is priced differently.
func fingerprintConfig(t *testing.T) *core.Config {
	t.Helper()
	cfg := &core.Config{
		Clusters: []core.Cluster{
			{Nodes: 6, Lambda: 900, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
			{Nodes: 10, Lambda: 600, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
			{Nodes: 4, Lambda: 1200, ICN1: network.FastEthernet, ECN1: network.FastEthernet},
		},
		ICN2:         network.FastEthernet,
		Arch:         network.NonBlocking,
		Switch:       network.Switch{Ports: 8, Latency: 10e-6},
		MessageBytes: 512,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// simCase runs the cluster simulator on fingerprintConfig with the
// options mutate leaves, compiling spec (when non-nil) as its timeline.
func simCase(name string, spec *scenario.Spec, mutate func(o *sim.Options)) engineCase {
	return engineCase{name: "sim/" + name, run: func(t *testing.T, col *telemetry.Collector) (*sim.Result, *trace.Recorder) {
		cfg := fingerprintConfig(t)
		o := sim.DefaultOptions()
		o.Seed, o.WarmupMessages, o.MeasuredMessages = 17, 300, 3000
		o.Stats = col
		if mutate != nil {
			mutate(&o)
		}
		if spec != nil {
			var err error
			if o.Scenario, err = scenario.CompileSim(spec, cfg); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sim.Run(cfg, o)
		if err != nil {
			t.Fatal(err)
		}
		return res, o.Trace
	}}
}

// netShape is a switch-level network the netsim cases build.
type netShape struct {
	linear    bool
	n, pr     int
	tech      network.Technology
	swLatency float64
	// dist is every link's service-time family.
	dist rng.Dist
}

// build constructs the network.
func (s netShape) build() (*netsim.Network, error) {
	sw := network.Switch{Ports: s.pr, Latency: s.swLatency}
	if s.linear {
		return netsim.BuildLinearArray(s.n, s.pr, s.tech, sw)
	}
	return netsim.BuildFatTree(s.n, s.pr, s.tech, sw)
}

// netCase runs the switch-level simulator on shape at lambda per
// endpoint with the options mutate leaves, compiling spec (when non-nil)
// against the topology.
func netCase(name string, shape netShape, lambda float64, spec *scenario.Spec, mutate func(o *sim.Options)) engineCase {
	return engineCase{name: "netsim/" + name, run: func(t *testing.T, col *telemetry.Collector) (*sim.Result, *trace.Recorder) {
		o := sim.Options{WarmupMessages: 200, MeasuredMessages: 3000, Seed: 23, ServiceDist: shape.dist, Stats: col}
		if mutate != nil {
			mutate(&o)
		}
		n, err := shape.build()
		if err != nil {
			t.Fatal(err)
		}
		if spec != nil {
			if o.Scenario, err = scenario.CompileNet(spec, n.Topo()); err != nil {
				t.Fatal(err)
			}
		}
		res, err := n.Run(lambda, 1024, o)
		if err != nil {
			t.Fatal(err)
		}
		return res, nil
	}}
}

// engineCases is every replication the fingerprint pins.
func engineCases(t *testing.T) []engineCase {
	mmpp, err := workload.NewMMPP(8, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	det := rng.Deterministic{Value: 1}
	exp := rng.Exponential{MeanValue: 1}
	// zeroLatency is a link technology with no NIC latency: with a
	// zero-latency switch every tail delay is 0 and deliveries tie.
	zeroLatency := network.Technology{Name: "zero-latency", Latency: 0, Bandwidth: network.GigabitEthernet.Bandwidth}
	singleSwitch := netShape{n: 6, pr: 8, tech: network.GigabitEthernet, swLatency: 10e-6, dist: exp}
	fatTree := netShape{n: 32, pr: 8, tech: network.FastEthernet, swLatency: 10e-6, dist: exp}
	linear := netShape{linear: true, n: 40, pr: 8, tech: network.FastEthernet, swLatency: 10e-6, dist: exp}
	tiedFat := netShape{n: 8, pr: 4, tech: zeroLatency, dist: det}
	tiedLinear := netShape{linear: true, n: 24, pr: 4, tech: zeroLatency, dist: det}
	detFat := netShape{n: 18, pr: 6, tech: network.GigabitEthernet, swLatency: 10e-6, dist: det}

	record := func(o *sim.Options) { o.RecordSample = true }
	horizon := 0.05
	simScenario := func(events ...scenario.Event) *scenario.Spec {
		return &scenario.Spec{HorizonS: horizon, Events: events}
	}
	return []engineCase{
		simCase("closed-exp", nil, nil),
		simCase("open-exp", nil, func(o *sim.Options) { o.OpenLoop = true }),
		simCase("closed-det", nil, func(o *sim.Options) { o.ServiceDist = det }),
		simCase("open-det", nil, func(o *sim.Options) { o.OpenLoop, o.ServiceDist = true, det }),
		simCase("mmpp", nil, func(o *sim.Options) { o.Arrival = mmpp }),
		simCase("hotspot", nil, func(o *sim.Options) { o.Pattern = workload.Hotspot{Node: 7, Fraction: 0.4} }),
		simCase("record", nil, func(o *sim.Options) { o.RecordSample = true }),
		simCase("timeout", nil, func(o *sim.Options) { o.RecordSample, o.MaxSimTime = true, 0.01 }),
		simCase("trace", nil, func(o *sim.Options) { o.MeasuredMessages, o.Trace = 400, trace.NewRecorder(0) }),
		simCase("scenario-drop", simScenario(
			scenario.Event{TS: 0.01, Action: "fail", Target: "icn2", Policy: "drop"},
			scenario.Event{TS: 0.02, Action: "repair", Target: "icn2"},
			scenario.Event{TS: 0.025, Action: "fail", Target: "ecn1:1", Policy: "drop"},
			scenario.Event{TS: 0.035, Action: "repair", Target: "ecn1:1"},
		), func(o *sim.Options) { o.RecordSample = true }),
		simCase("scenario-requeue", simScenario(
			scenario.Event{TS: 0.01, Action: "fail", Target: "icn2", Policy: "requeue"},
			scenario.Event{TS: 0.02, Action: "repair", Target: "icn2"},
			scenario.Event{TS: 0.03, Action: "fail", Target: "node:3"},
			scenario.Event{TS: 0.04, Action: "repair", Target: "node:3"},
		), nil),
		simCase("scenario-reroute", simScenario(
			scenario.Event{TS: 0.01, Action: "fail", Target: "icn1:1", Policy: "reroute"},
			scenario.Event{TS: 0.03, Action: "repair", Target: "icn1:1"},
		), func(o *sim.Options) { o.RecordSample, o.ServiceDist = true, det }),
		simCase("scenario-open-reroute", simScenario(
			scenario.Event{TS: 0.01, Action: "fail", Target: "icn1:0", Policy: "reroute"},
			scenario.Event{TS: 0.02, Action: "fail", Target: "cluster:2", Policy: "drop"},
			scenario.Event{TS: 0.03, Action: "repair", Target: "icn1:0"},
			scenario.Event{TS: 0.04, Action: "repair", Target: "cluster:2"},
		), func(o *sim.Options) { o.OpenLoop = true }),
		simCase("scenario-initial-down", &scenario.Spec{HorizonS: horizon,
			InitialDown: []string{"cluster:1", "node:2"},
			Events: []scenario.Event{
				{TS: 0.015, Action: "repair", Target: "cluster:1"},
				{TS: 0.025, Action: "repair", Target: "node:2"},
			},
			Profile: &scenario.ProfileSpec{Kind: "flash", PeakFactor: 3, StartS: 0.005, RampS: 0.005, HoldS: 0.01},
		}, func(o *sim.Options) { o.RecordSample = true }),

		netCase("single-switch", singleSwitch, 2000, nil, nil),
		netCase("fat-tree", fatTree, 2000, nil, record),
		netCase("fat-tree-hotspot-mmpp", fatTree, 2000, nil, func(o *sim.Options) {
			o.Arrival, o.Pattern = mmpp, workload.Hotspot{Node: 5, Fraction: 0.3}
		}),
		netCase("linear-array", linear, 300, nil, nil),
		netCase("tied-fat-tree", tiedFat, 20000, nil, record),
		netCase("tied-linear-array", tiedLinear, 5000, nil, record),
		netCase("det-fat-tree", detFat, 20000, nil, nil),
		netCase("timeout", linear, 2000, nil, func(o *sim.Options) { o.MaxSimTime, o.RecordSample = 0.02, true }),
		netCase("spine-drop", fatTree, 20000, &scenario.Spec{HorizonS: 0.1, Events: []scenario.Event{
			{TS: 0.03, Action: "fail", Target: "spine:1", Policy: "drop"},
			{TS: 0.06, Action: "repair", Target: "spine:1"},
		}}, record),
		netCase("tied-spine-drop", tiedFat, 1e6, &scenario.Spec{HorizonS: 0.01, Events: []scenario.Event{
			{TS: 0.002, Action: "fail", Target: "spine:0", Policy: "drop"},
			{TS: 0.004, Action: "fail", Target: "switch:2", Policy: "drop"},
			{TS: 0.006, Action: "repair", Target: "spine:0"},
			{TS: 0.008, Action: "repair", Target: "switch:2"},
		}}, record),
		netCase("switch-requeue", linear, 2000, &scenario.Spec{HorizonS: 0.2, Events: []scenario.Event{
			{TS: 0.05, Action: "fail", Target: "switch:2", Policy: "requeue"},
			{TS: 0.1, Action: "repair", Target: "switch:2"},
			{TS: 0.12, Action: "fail", Target: "node:9"},
			{TS: 0.15, Action: "repair", Target: "node:9"},
		}}, record),
		netCase("initial-down", fatTree, 2000, &scenario.Spec{HorizonS: 0.1,
			InitialDown: []string{"node:4", "switch:3", "spine:0"},
			Events: []scenario.Event{
				{TS: 0.02, Action: "repair", Target: "spine:0"},
				{TS: 0.04, Action: "repair", Target: "switch:3"},
				{TS: 0.05, Action: "repair", Target: "node:4"},
			},
			Profile: &scenario.ProfileSpec{Kind: "flash", PeakFactor: 2, StartS: 0.01, RampS: 0.01, HoldS: 0.02},
		}, record),
	}
}

// fingerprint writes every field of one replication's result, a
// scenario replication's slice sums and counts, its trace and its engine
// counters, each float as its bit pattern.
func fingerprint(b *strings.Builder, name string, res *sim.Result, rec *trace.Recorder, st telemetry.SimStats) {
	line := func(field string, v any) { fmt.Fprintf(b, "%s %s %v\n", name, field, v) }
	bits := func(field string, v float64) { line(field, fmt.Sprintf("%016x", math.Float64bits(v))) }
	welford := func(field string, w stats.Welford) {
		s := w.State()
		line(field+".n", s.N)
		bits(field+".mean", s.Mean)
		bits(field+".m2", s.M2)
		bits(field+".min", s.Min)
		bits(field+".max", s.Max)
	}
	floats := func(field string, xs []float64) {
		h := fnv.New64a()
		for _, x := range xs {
			fmt.Fprintf(h, "%016x", math.Float64bits(x))
		}
		line(field, fmt.Sprintf("len=%d fnv=%016x", len(xs), h.Sum64()))
	}
	welford("Latency", res.Latency)
	floats("Sample", res.Sample)
	for k, n := range res.SliceCounts {
		line(fmt.Sprintf("Slices[%d]", k), fmt.Sprintf("%016x %d", math.Float64bits(res.SliceSums[k]), n))
	}
	bits("SimTime", res.SimTime)
	line("Generated", res.Generated)
	line("Measured", res.Measured)
	bits("Throughput", res.Throughput)
	bits("EffectiveLambda", res.EffectiveLambda)
	line("TimedOut", res.TimedOut)
	line("Dropped", res.Dropped)
	line("Rerouted", res.Rerouted)
	welford("SwitchHops", res.SwitchHops)
	for i, c := range res.Centers {
		line(fmt.Sprintf("Centers[%d]", i), fmt.Sprintf("%q %016x %016x %016x %d", c.Name,
			math.Float64bits(c.Utilization), math.Float64bits(c.MeanQueueLength), math.Float64bits(c.MaxQueueLength), c.Served))
	}
	if rec != nil {
		h := fnv.New64a()
		for _, ev := range rec.Events() {
			fmt.Fprintf(h, "%d %016x %d %s\n", ev.MsgID, math.Float64bits(ev.Time), ev.Kind, ev.Where)
		}
		line("Trace", fmt.Sprintf("len=%d dropped=%d fnv=%016x", rec.Len(), rec.Dropped(), h.Sum64()))
	}
	line("Stats.Events", st.Events)
	line("Stats.MaxPending", st.MaxPending)
}

// TestEngineFingerprint pins every output of both engines at full
// precision against testdata/golden-engines.txt: each Result field as its
// float bit pattern, the per-centre rows, hashes of the raw samples and
// of a message trace, a scenario case's per-slice latency sums and
// counts, and the engine's event count and event-set high-water mark (an
// extra or a missing event moves those). The rendered
// goldens round to a few digits; this one moves with the last bit.
func TestEngineFingerprint(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden-engines.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, c := range engineCases(t) {
		col := telemetry.NewCollector()
		res, rec := c.run(t, col)
		st, reps := col.Snapshot()
		if reps != 1 {
			t.Fatalf("%s: %d telemetry records, want 1", c.name, reps)
		}
		fingerprint(&got, c.name, res, rec, st)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i, bad := 0, 0; i < max(len(gotLines), len(wantLines)) && bad < 20; i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("testdata/golden-engines.txt line %d:\n got  %s\n want %s", i+1, g, w)
			bad++
		}
	}
}
