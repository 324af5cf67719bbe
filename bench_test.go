// Benchmarks regenerating every table and figure of the paper's evaluation
// plus the repo's ablations. Each BenchmarkFigureN exercises the exact code
// path of `hmscs-figures -what figN` (analytical series over the full
// cluster axis, simulation at a representative point); the full printed
// reproduction lives in cmd/hmscs-figures and EXPERIMENTS.md.
package hmscs

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hmscs/internal/analytic"
	"hmscs/internal/core"
	"hmscs/internal/dist"
	"hmscs/internal/netsim"
	"hmscs/internal/network"
	"hmscs/internal/output"
	"hmscs/internal/par"
	"hmscs/internal/plan"
	"hmscs/internal/rng"
	"hmscs/internal/run"
	"hmscs/internal/sim"
	"hmscs/internal/sweep"
	"hmscs/internal/telemetry"
)

// benchSimOpts keeps per-iteration simulation cost modest while exercising
// the full pipeline.
func benchSimOpts() sim.Options {
	o := sim.DefaultOptions()
	o.WarmupMessages = 500
	o.MeasuredMessages = 2000
	return o
}

// BenchmarkTable1Scenarios regenerates Table 1: both scenario presets with
// their technology assignments.
func BenchmarkTable1Scenarios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range []core.Scenario{core.Case1, core.Case2} {
			icn1, ecn, err := s.Technologies()
			if err != nil {
				b.Fatal(err)
			}
			if icn1.Name == ecn.Name {
				b.Fatal("scenario technologies must differ")
			}
		}
	}
}

// BenchmarkTable2Parameters regenerates Table 2: the full parameterised
// platform construction from the published constants.
func BenchmarkTable2Parameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, err := core.PaperConfig(core.Case1, 16, 1024, network.NonBlocking)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cfg.BuildCenters(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFigure runs one paper figure: the analytic curve over the whole
// cluster axis plus a simulation spot-check at C=16 (the regime-change
// point the paper highlights). Every iteration runs the same seeded
// spot-check, so its latency-ms metric depends on the code alone, not
// on b.N.
func benchFigure(b *testing.B, figure int) {
	b.Helper()
	spec, err := sweep.PaperFigure(figure)
	if err != nil {
		b.Fatal(err)
	}
	simCfg, err := core.PaperConfig(spec.Scenario, 16, 1024, spec.Arch)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := sweep.Options{SkipSimulation: true}
		batch, err := sweep.FigureBatch([]sweep.FigureSpec{spec}, opts)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sweep.RunFiguresCtx(context.Background(), batch, opts, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res[0].Series) != 2 {
			b.Fatal("unexpected series count")
		}
		sr, err := sim.Run(simCfg, benchSimOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sr.MeanLatency()*1e3, "latency-ms")
	}
}

// BenchmarkFigure4 regenerates Figure 4 (Case 1, non-blocking).
func BenchmarkFigure4(b *testing.B) { benchFigure(b, 4) }

// BenchmarkFigure5 regenerates Figure 5 (Case 2, non-blocking).
func BenchmarkFigure5(b *testing.B) { benchFigure(b, 5) }

// BenchmarkFigure6 regenerates Figure 6 (Case 1, blocking).
func BenchmarkFigure6(b *testing.B) { benchFigure(b, 6) }

// BenchmarkFigure7 regenerates Figure 7 (Case 2, blocking).
func BenchmarkFigure7(b *testing.B) { benchFigure(b, 7) }

// BenchmarkBlockingRatio reproduces the §6 claim computation: the
// blocking/non-blocking latency ratio across the cluster axis.
func BenchmarkBlockingRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range core.PaperClusterCounts() {
			nbCfg, err := core.PaperConfig(core.Case2, c, 1024, network.NonBlocking)
			if err != nil {
				b.Fatal(err)
			}
			blCfg, err := core.PaperConfig(core.Case2, c, 1024, network.Blocking)
			if err != nil {
				b.Fatal(err)
			}
			nb, err := analytic.Analyze(nbCfg)
			if err != nil {
				b.Fatal(err)
			}
			bl, err := analytic.Analyze(blCfg)
			if err != nil {
				b.Fatal(err)
			}
			if bl.MeanLatency <= nb.MeanLatency {
				b.Fatalf("C=%d: blocking not slower", c)
			}
		}
	}
}

// BenchmarkAblationIterationVsMVA compares the paper's effective-rate
// iteration against the exact MVA solution across the figure axis.
func BenchmarkAblationIterationVsMVA(b *testing.B) {
	cfgs := make([]*core.Config, 0, 9)
	for _, c := range core.PaperClusterCounts() {
		cfg, err := core.PaperConfig(core.Case1, c, 1024, network.NonBlocking)
		if err != nil {
			b.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			open, err := analytic.Analyze(cfg)
			if err != nil {
				b.Fatal(err)
			}
			mva, err := analytic.AnalyzeMVA(cfg)
			if err != nil {
				b.Fatal(err)
			}
			ratio := open.MeanLatency / mva.MeanLatency
			if ratio < 0.3 || ratio > 3.5 {
				b.Fatalf("iteration diverged from MVA: %v", ratio)
			}
		}
	}
}

// BenchmarkAblationServiceDistribution quantifies the exponential-service
// assumption: the same platform simulated with M/M/1-style and
// M/D/1-style service.
func BenchmarkAblationServiceDistribution(b *testing.B) {
	cfg, err := core.PaperConfig(core.Case1, 16, 1024, network.NonBlocking)
	if err != nil {
		b.Fatal(err)
	}
	for _, svc := range []struct {
		name string
		dist rng.Dist
	}{
		{"exp", rng.Exponential{MeanValue: 1}},
		{"det", rng.Deterministic{Value: 1}},
	} {
		b.Run(svc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := benchSimOpts()
				o.Seed = uint64(i + 1)
				o.ServiceDist = svc.dist
				res, err := sim.Run(cfg, o)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.MeanLatency()*1e3, "latency-ms")
			}
		})
	}
}

// BenchmarkAblationOpenLoop quantifies assumption 4 (blocking sources) by
// simulating the same platform with open-loop generation at a stable load.
func BenchmarkAblationOpenLoop(b *testing.B) {
	cfg, err := core.NewSuperCluster(16, 16, 20, network.GigabitEthernet,
		network.FastEthernet, network.NonBlocking, network.PaperSwitch, 1024)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		open bool
	}{{"closed", false}, {"open", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := benchSimOpts()
				o.Seed = uint64(i + 1)
				o.OpenLoop = mode.open
				o.MaxSimTime = 300
				res, err := sim.Run(cfg, o)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.MeanLatency()*1e3, "latency-ms")
			}
		})
	}
}

// BenchmarkAnalyze measures the analytical model's evaluation cost (the
// paper's pitch: "quick performance estimates"). C=4,64,256 are Case 1
// systems of identical clusters, one run each. split analyzes the default
// plan space's two heterogeneous layouts, {32,16,8,8} and {64,32,32}, per
// op. alt-C=256 alternates λ and 1.5λ between neighbours, so every
// cluster is its own run and run-length evaluation saves nothing. All of
// those saturate a centre at s = 1; unsaturated analyzes a Case 1 C=64
// system and the {64,32,32} split at λ = 20, where none does, so the
// fixed point's bracket takes its other starting branch.
func BenchmarkAnalyze(b *testing.B) {
	bench := func(name string, cfgs ...*core.Config) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, cfg := range cfgs {
					if _, err := analytic.Analyze(cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	paper := func(c int) *core.Config {
		cfg, err := core.PaperConfig(core.Case1, c, 1024, network.NonBlocking)
		if err != nil {
			b.Fatal(err)
		}
		return cfg
	}
	for _, c := range []int{4, 64, 256} {
		bench(fmt.Sprintf("C=%d", c), paper(c))
	}
	split := func(layout []int, lambda float64) *core.Config {
		cfg, err := core.NewSuperCluster(len(layout), 1, lambda, network.GigabitEthernet,
			network.FastEthernet, network.NonBlocking, network.PaperSwitch, 1024)
		if err != nil {
			b.Fatal(err)
		}
		for i, n := range layout {
			cfg.Clusters[i].Nodes = n
		}
		return cfg
	}
	var splits []*core.Config
	for _, layout := range plan.DefaultSpace().Splits {
		splits = append(splits, split(layout, core.PaperLambda))
	}
	bench("split", splits...)
	alt := paper(256)
	for i := 1; i < len(alt.Clusters); i += 2 {
		alt.Clusters[i].Lambda *= 1.5
	}
	bench("alt-C=256", alt)
	// Every row above saturates a centre at s = 1; at λ = 20 neither of
	// these does, so the bracket starts one fixed-point step from 1.
	quiet := paper(64)
	for i := range quiet.Clusters {
		quiet.Clusters[i].Lambda = 20
	}
	bench("unsaturated", quiet, split(plan.DefaultSpace().Splits[1], 20))
}

// BenchmarkMVA measures the exact solver's cost at the full population.
func BenchmarkMVA(b *testing.B) {
	cfg, err := core.PaperConfig(core.Case1, 64, 1024, network.NonBlocking)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := analytic.AnalyzeMVA(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorEventRate measures raw simulator throughput on the
// paper platform (events are dominated by message hops).
func BenchmarkSimulatorEventRate(b *testing.B) {
	cfg, err := core.PaperConfig(core.Case1, 16, 1024, network.NonBlocking)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := benchSimOpts()
		o.Seed = uint64(i + 1)
		res, err := sim.Run(cfg, o)
		if err != nil {
			b.Fatal(err)
		}
		if res.Measured == 0 {
			b.Fatal("no messages measured")
		}
	}
}

// BenchmarkSimulatorReplication prices one replication of the paper
// platform (256 processors, 2000 measured messages) at C=1, 16 and 256
// clusters through the pooled sim.Run: set-up plus event loop. Its
// allocs/op should read the same small constant at every C.
func BenchmarkSimulatorReplication(b *testing.B) {
	for _, c := range []int{1, 16, 256} {
		cfg, err := core.PaperConfig(core.Case1, c, 1024, network.NonBlocking)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o := benchSimOpts()
				o.Seed = uint64(i + 1)
				res, err := sim.Run(cfg, o)
				if err != nil {
					b.Fatal(err)
				}
				if res.Measured != int64(o.MeasuredMessages) {
					b.Fatalf("measured %d messages, want %d", res.Measured, o.MeasuredMessages)
				}
			}
		})
	}
}

// BenchmarkAblationMulticlassHeterogeneous solves the heterogeneous
// Cluster-of-Clusters system (the paper's future work) with the multiclass
// closed-network solver.
func BenchmarkAblationMulticlassHeterogeneous(b *testing.B) {
	cfg := &core.Config{
		Clusters: []core.Cluster{
			{Nodes: 128, Lambda: 100, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
			{Nodes: 64, Lambda: 150, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
			{Nodes: 48, Lambda: 200, ICN1: network.Myrinet, ECN1: network.FastEthernet},
			{Nodes: 16, Lambda: 400, ICN1: network.FastEthernet, ECN1: network.FastEthernet},
		},
		ICN2:         network.FastEthernet,
		Arch:         network.NonBlocking,
		Switch:       network.PaperSwitch,
		MessageBytes: 1024,
	}
	for i := 0; i < b.N; i++ {
		res, err := analytic.AnalyzeMulticlass(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanResponse()*1e3, "latency-ms")
	}
}

// BenchmarkAblationSCVModel evaluates the M/G/1 model variant across SCVs.
func BenchmarkAblationSCVModel(b *testing.B) {
	cfg, err := core.PaperConfig(core.Case1, 16, 1024, network.NonBlocking)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, scv := range []float64{0, 1, 4} {
			if _, err := analytic.AnalyzeSCV(cfg, scv); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// holdModel is the classic event-set benchmark handler: every dispatched
// event reschedules itself, keeping the set at a steady size.
type holdModel struct {
	eng *sim.Engine
	st  *rng.Stream
}

func (h *holdModel) Handle(sim.EventKind, int32) {
	h.eng.Schedule(h.st.Exp(1e-3), 0, 0)
}

// BenchmarkEventListHeap measures the future-event set on the hold model
// (pop one, push one).
func BenchmarkEventListHeap(b *testing.B) {
	eng := sim.NewEngine()
	st := rng.NewStream(1)
	eng.SetHandler(&holdModel{eng: eng, st: st})
	// Pre-fill with 4096 pending events.
	for i := 0; i < 4096; i++ {
		eng.Schedule(st.Exp(1e-3), 0, 0)
	}
	b.ResetTimer()
	// Each Run(maxTime) slice processes a bounded batch of events.
	processed := 0
	for i := 0; i < b.N; i++ {
		// Process events in slices of simulated time; each event reschedules
		// itself, keeping the set at a steady 4096.
		processed += eng.Run(eng.Now() + 1e-3)
	}
	if processed == 0 && b.N > 0 {
		b.Fatal("no events processed")
	}
}

// BenchmarkPlanScreen measures the capacity planner's analytic screening
// stage over the full documented design space (1584 candidates), the
// surrogate half of the surrogate-screen-then-simulate loop. Tracked in
// BENCH_sim.json: regressions here directly slow every planning run.
func BenchmarkPlanScreen(b *testing.B) {
	sp := plan.DefaultSpace()
	slo := plan.SLO{MaxLatency: 2e-3, MinNodes: 64}
	cm := plan.DefaultCostModel()
	sp.Lambda = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := plan.Screen(sp, slo, cm, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) < 1000 {
			b.Fatalf("screened only %d candidates", len(res))
		}
		fr := plan.Frontier(res)
		if len(fr) == 0 {
			b.Fatal("empty frontier")
		}
		b.ReportMetric(float64(len(res)), "candidates/op")
	}
}

// BenchmarkPlanEnumerate measures expanding the documented design space
// into its 1584 candidates, the serial step before the screen's pool.
// Its bytes are the configuration slab and the shared cluster runs
// (DESIGN.md §7); bytes that grow with candidates × clusters mean
// candidates copy their clusters again.
func BenchmarkPlanEnumerate(b *testing.B) {
	sp := plan.DefaultSpace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cands, err := plan.Enumerate(sp)
		if err != nil {
			b.Fatal(err)
		}
		if len(cands) != 1584 {
			b.Fatalf("enumerated %d candidates, want 1584", len(cands))
		}
	}
}

// BenchmarkParForEach prices the worker pool's per-unit dispatch: 1024
// units of about 1 µs of arithmetic each, on the calling goroutine (p1)
// and on every CPU (all). ns/unit is the op time over the unit count.
// With all CPUs, the excess over p1's ns/unit divided by the core count
// is the dispatch cost the planner's microsecond screen units pay.
func BenchmarkParForEach(b *testing.B) {
	const units = 1024
	out := make([]float64, units)
	unit := func(i int) error {
		x := float64(i)
		for k := 0; k < 200; k++ {
			x = math.Sqrt(x + float64(k))
		}
		out[i] = x
		return nil
	}
	for _, c := range []struct {
		name string
		p    int
	}{{"p1", 1}, {"all", 0}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := par.ForEachCtx(context.Background(), units, c.p, unit); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*units), "ns/unit")
		})
	}
}

// BenchmarkRunBatch prices the replication driver itself: 8 units
// through sim.RunBatchCtx at parallelism 1 with a stub UnitFunc that
// returns a fresh canned Result over one shared 500-message sample, so an
// op is the pool claims, the per-replication option derivation,
// bookkeeping and fold, plus (adaptive) one output.AnalyzeRun per
// replication, and no engine. Both schedules run 16 replications per
// unit (the adaptive one converges on its 16-replication pilot round);
// ns/rep is the op time over the 128 replications.
func BenchmarkRunBatch(b *testing.B) {
	const units, reps = 8, 16
	sample := make([]float64, 500)
	for i := range sample {
		sample[i] = 1e-3 * (1 + 0.01*float64(i%7-3))
	}
	stub := func(context.Context, int, int, *core.Config, sim.Options) (*sim.Result, error) {
		return &sim.Result{Sample: sample, Measured: int64(len(sample)), Generated: int64(len(sample))}, nil
	}
	batch := make([]sim.Unit, units)
	for i := range batch {
		batch[i] = sim.Unit{Opts: sim.DefaultOptions()}
	}
	for _, c := range []struct {
		name  string
		sched sim.Schedule
	}{
		{"fixed", sim.Schedule{Reps: reps}},
		{"adaptive", sim.Schedule{Precision: &output.Precision{RelWidth: 0.05, MinReps: reps, MaxReps: reps}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunBatchCtx(context.Background(), batch, c.sched, 1, nil, stub); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*units*reps), "ns/rep")
		})
	}
}

// BenchmarkNetsimFatTree measures the switch-level simulator's throughput.
func BenchmarkNetsimFatTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := netsim.BuildFatTree(32, 8, network.FastEthernet, network.Switch{Ports: 8, Latency: 10e-6})
		if err != nil {
			b.Fatal(err)
		}
		res, err := net.Run(5000, 1024, sim.Options{
			WarmupMessages: 200, MeasuredMessages: 3000, Seed: uint64(i + 1), ServiceDist: rng.Deterministic{Value: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Latency.Mean()*1e3, "latency-ms")
	}
}

// BenchmarkNetsimLinearArray measures the switch-level simulator on the
// paper's blocking topology (§5.3): 96 endpoints on a chain of twelve
// 8-port switches, loaded so the inter-switch links queue long, which
// drives the link centres' rings harder than the fat-tree does.
func BenchmarkNetsimLinearArray(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := netsim.BuildLinearArray(96, 8, network.FastEthernet, network.Switch{Ports: 8, Latency: 10e-6})
		if err != nil {
			b.Fatal(err)
		}
		res, err := net.Run(500, 1024, sim.Options{
			WarmupMessages: 200, MeasuredMessages: 3000, Seed: uint64(i + 1), ServiceDist: rng.Deterministic{Value: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Latency.Mean()*1e3, "latency-ms")
	}
}

// BenchmarkInstrumentedReplication measures one replication of a
// 512-cluster system with and without a stats collector attached, so
// bench-compare gates the instrumentation overhead (DESIGN.md §12):
// engine counters are plain locals folded once per replication.
func BenchmarkInstrumentedReplication(b *testing.B) {
	cfg, err := core.NewSuperCluster(512, 2, 100, network.GigabitEthernet,
		network.FastEthernet, network.NonBlocking, network.PaperSwitch, 1024)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		stats bool
	}{{"stats-off", false}, {"stats-on", true}} {
		b.Run(bc.name, func(b *testing.B) {
			var col *telemetry.Collector
			if bc.stats {
				col = telemetry.NewCollector()
			}
			var msgs int64
			for i := 0; i < b.N; i++ {
				o := benchSimOpts()
				o.Seed = uint64(i + 1)
				o.Stats = col
				res, err := sim.Run(cfg, o)
				if err != nil {
					b.Fatal(err)
				}
				msgs += int64(res.Measured)
			}
			if st, reps := col.Snapshot(); bc.stats && (reps != int64(b.N) || st.Events == 0) {
				b.Fatalf("collector saw %d replications, %d events — instrumentation not wired", reps, st.Events)
			}
			b.ReportMetric(float64(msgs)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}

// BenchmarkRunSpec measures the whole local path, spec to report: each
// checked-in experiment (testdata/experiments/<name>.json, one per kind
// plus the dynamic-scenario variants) parsed, executed through Run at
// parallelism 1, and rendered as markdown.
func BenchmarkRunSpec(b *testing.B) {
	files, err := filepath.Glob(filepath.Join("testdata", "experiments", "*.json"))
	if err != nil || len(files) == 0 {
		b.Fatalf("no experiment specs: %v", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(strings.TrimSuffix(filepath.Base(path), ".json"), func(b *testing.B) {
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				e, err := ParseExperiment(data)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Run(context.Background(), e, RunOptions{
					Parallelism: 1,
					Sinks:       []Sink{NewMarkdownSink(&buf)},
				}); err != nil {
					b.Fatal(err)
				}
			}
			if buf.Len() == 0 {
				b.Fatal("experiment rendered nothing")
			}
		})
	}
}

// BenchmarkDistUnit prices the fleet's unit path: one op is a run.Run
// of a 2-cluster simulate spec's replications at parallelism 1 through
// a dist.Executor, and ns/unit divides by the units. local attaches no
// worker, so every unit takes the executor's local slot; 1w and 2w
// attach in-process workers over HTTP (httptest), whose runs also pay
// the lease long-poll, the JSON result codec and the positional hand-off
// to the driver's fold. The short cases run 32 replications of 50
// warm-up and 200 measured messages, too short for a worker's run to
// amortise its grant, so the workers should take none; the long- cases
// run 16 of 2,000 and 20,000, long enough that two workers' runs should
// beat the local slot alone. remote-share is the fraction of units the
// workers ran.
func BenchmarkDistUnit(b *testing.B) {
	for _, c := range []struct {
		name                   string
		workers                int
		warmup, messages, reps int
	}{
		{"local", 0, 50, 200, 32},
		{"1w", 1, 50, 200, 32},
		{"2w", 2, 50, 200, 32},
		{"long-local", 0, 2000, 20000, 16},
		{"long-2w", 2, 2000, 20000, 16},
	} {
		e := run.NewExperiment(run.KindSimulate)
		e.System.Clusters, e.System.Total = 2, 8
		e.Run.Messages, e.Run.Warmup, e.Run.Reps = c.messages, c.warmup, c.reps
		b.Run(c.name, func(b *testing.B) {
			coord := dist.NewCoordinator(10 * time.Second)
			mux := http.NewServeMux()
			coord.Mount(mux)
			ts := httptest.NewServer(mux)
			ctx, cancel := context.WithCancel(context.Background())
			defer func() {
				cancel()
				coord.Close()
				ts.Close()
			}()
			for i := 0; i < c.workers; i++ {
				go (&dist.Worker{Connect: ts.URL, Procs: 1}).Run(ctx) //nolint:errcheck // exits with ctx.Err on cancel
			}
			for coord.Live() < c.workers {
				time.Sleep(time.Millisecond)
			}
			ex, err := dist.NewExecutor(ctx, coord, "bench-dist-unit", e, 1)
			if err != nil {
				b.Fatal(err)
			}
			defer ex.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := run.Run(ctx, e, run.Options{Parallelism: 1, Units: ex.Runner}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.reps), "ns/unit")
			b.ReportMetric(float64(coord.Stats().Completed)/float64(b.N*c.reps), "remote-share")
		})
	}
}

// BenchmarkServeSubmit prices the -submit path end to end: one op is a
// serve.Client.Execute of testdata/experiments/simulate.json against an
// in-process experiment server (parallelism 1, one job at a time) over
// httptest — submit, stream the JSONL events, fetch the rendered
// report. miss submits a fresh seed each iteration, so every op runs the
// spec; hit resubmits one spec the server has already run, so every op
// replays the cache.
func BenchmarkServeSubmit(b *testing.B) {
	data, err := os.ReadFile(filepath.Join("testdata", "experiments", "simulate.json"))
	if err != nil {
		b.Fatal(err)
	}
	for _, hit := range []bool{false, true} {
		name := "miss"
		if hit {
			name = "hit"
		}
		b.Run(name, func(b *testing.B) {
			srv := NewExperimentServer(ExperimentServerConfig{Parallelism: 1, MaxJobs: 1})
			ts := httptest.NewServer(srv.Handler())
			defer func() {
				ts.Close()
				srv.Close()
			}()
			client := NewExperimentClient(ts.URL)
			e, err := ParseExperiment(data)
			if err != nil {
				b.Fatal(err)
			}
			e.Run.Seed = 1
			if hit {
				if _, err := client.Execute(context.Background(), e, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			var report bytes.Buffer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !hit {
					e.Run.Seed = uint64(i) + 2
				}
				report.Reset()
				info, err := client.Execute(context.Background(), e, &report, nil)
				if err != nil {
					b.Fatal(err)
				}
				if info.Cached != hit || report.Len() == 0 {
					b.Fatalf("seed %d: cached %v with a %d-byte report, want cached %v and a report", e.Run.Seed, info.Cached, report.Len(), hit)
				}
			}
		})
	}
}
