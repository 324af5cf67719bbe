package sweep

import (
	"context"
	"strings"
	"testing"

	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/output"
	"hmscs/internal/scenario"
	"hmscs/internal/sim"
	"hmscs/internal/workload"
)

func fastOpts() Options {
	o := DefaultOptions()
	o.Sim.WarmupMessages = 500
	o.Sim.MeasuredMessages = 3000
	o.Replications = 2
	return o
}

// runFigures evaluates a figure batch over its FigureBatch derivation,
// every unit running locally.
func runFigures(specs []FigureSpec, opts Options) ([]*FigureResult, error) {
	b, err := FigureBatch(specs, opts)
	if err != nil {
		return nil, err
	}
	return RunFiguresCtx(context.Background(), b, opts, nil)
}

// runFigure evaluates one figure through runFigures.
func runFigure(spec FigureSpec, opts Options) (*FigureResult, error) {
	res, err := runFigures([]FigureSpec{spec}, opts)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// runPoints evaluates sweep points over their PointBatch derivation,
// every unit running locally.
func runPoints(points []PointSpec, opts Options) ([]PointResult, error) {
	b, err := PointBatch(points, opts)
	if err != nil {
		return nil, err
	}
	return RunPointsCtx(context.Background(), b, opts, nil)
}

// customSweep evaluates configurations with the paper's uniform traffic:
// runPoints without per-point overrides.
func customSweep(cfgs []*core.Config, opts Options) ([]PointResult, error) {
	points := make([]PointSpec, len(cfgs))
	for i, cfg := range cfgs {
		points[i] = PointSpec{Cfg: cfg, Locality: -1}
	}
	return runPoints(points, opts)
}

func TestPaperFigureSpecs(t *testing.T) {
	cases := []struct {
		n        int
		scenario core.Scenario
		arch     network.Architecture
	}{
		{4, core.Case1, network.NonBlocking},
		{5, core.Case2, network.NonBlocking},
		{6, core.Case1, network.Blocking},
		{7, core.Case2, network.Blocking},
	}
	for _, c := range cases {
		spec, err := PaperFigure(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Scenario != c.scenario || spec.Arch != c.arch {
			t.Errorf("figure %d spec = %+v", c.n, spec)
		}
		if len(spec.MessageSizes) != 2 || len(spec.ClusterCounts) != 9 {
			t.Errorf("figure %d axes wrong", c.n)
		}
	}
	for _, n := range []int{0, 3, 8} {
		if _, err := PaperFigure(n); err == nil {
			t.Errorf("figure %d accepted", n)
		}
	}
}

func TestRunFigureAnalyticOnly(t *testing.T) {
	spec, err := PaperFigure(4)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.SkipSimulation = true
	res, err := runFigure(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Clusters) != 9 {
			t.Fatalf("points = %d", len(s.Clusters))
		}
		for i, a := range s.Analytic {
			if a <= 0 {
				t.Fatalf("analytic latency %v at C=%d", a, s.Clusters[i])
			}
			if s.Simulated[i] != 0 {
				t.Fatal("simulation ran despite SkipSimulation")
			}
		}
	}
	// M=1024 curve must dominate M=512 everywhere (same platform, larger
	// messages).
	for i := range res.Series[0].Clusters {
		if res.Series[1].MsgSize == 1024 && res.Series[1].Analytic[i] <= res.Series[0].Analytic[i] {
			t.Fatalf("M=1024 not slower at C=%d", res.Series[0].Clusters[i])
		}
	}
}

func TestRunFigureWithSimulationAgrees(t *testing.T) {
	// Reduced figure 4: two cluster counts, small run. The analytic model
	// must track simulation within 15% MAPE (the full sweep achieves ~2%).
	spec, err := PaperFigure(4)
	if err != nil {
		t.Fatal(err)
	}
	spec.ClusterCounts = []int{2, 16}
	spec.MessageSizes = []int{1024}
	res, err := runFigure(spec, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	vs := res.Series[0].ValidationSeries("fig4-reduced")
	if err := vs.Check(0.15); err != nil {
		t.Fatal(err)
	}
}

func TestRunFigureBlockingAgrees(t *testing.T) {
	spec, err := PaperFigure(6)
	if err != nil {
		t.Fatal(err)
	}
	spec.ClusterCounts = []int{8, 32}
	spec.MessageSizes = []int{512}
	res, err := runFigure(spec, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	vs := res.Series[0].ValidationSeries("fig6-reduced")
	if err := vs.Check(0.15); err != nil {
		t.Fatal(err)
	}
}

func TestRunFigureRejectsBadSpec(t *testing.T) {
	spec := FigureSpec{
		Name:          "bogus",
		Scenario:      core.Case1,
		Arch:          network.NonBlocking,
		MessageSizes:  []int{1024},
		ClusterCounts: []int{3}, // does not divide 256
	}
	if _, err := runFigure(spec, Options{SkipSimulation: true}); err == nil {
		t.Fatal("bad cluster count accepted")
	}
	if !strings.Contains(spec.Name, "bogus") {
		t.Fatal("sanity")
	}
}

// TestCustomSweep runs a two-point custom sweep (RunPointsCtx over
// PointBatch) and checks the latencies rise with load and every point
// carries its estimate.
func TestCustomSweep(t *testing.T) {
	var cfgs []*core.Config
	for _, lambda := range []float64{10, 50} {
		cfg, err := core.NewSuperCluster(4, 8, lambda, network.GigabitEthernet,
			network.FastEthernet, network.NonBlocking, network.PaperSwitch, 1024)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	opts := fastOpts()
	res, err := customSweep(cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatal("output length wrong")
	}
	// Higher load must not reduce latency.
	if res[1].Analytic < res[0].Analytic {
		t.Fatalf("analytic latency fell with load: %v -> %v", res[0].Analytic, res[1].Analytic)
	}
	if res[1].Simulated < res[0].Simulated*0.9 {
		t.Fatalf("simulated latency fell with load: %v -> %v", res[0].Simulated, res[1].Simulated)
	}
	for i, r := range res {
		if r.Stat.Reps != opts.Replications || r.Stat.HalfWidth != r.SimCI {
			t.Fatalf("point %d estimate not threaded: %+v", i, r.Stat)
		}
	}
}

// TestCustomSweepAnalyticOnly: with SkipSimulation a custom sweep has no
// units and reports only the analytic side.
func TestCustomSweepAnalyticOnly(t *testing.T) {
	cfg, err := core.PaperConfig(core.Case1, 4, 512, network.NonBlocking)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{SkipSimulation: true}
	res, err := customSweep([]*core.Config{cfg}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Analytic <= 0 || res[0].Simulated != 0 {
		t.Fatal("analytic-only sweep wrong")
	}
}

// TestCustomSweepPropagatesErrors: an invalid configuration fails the
// custom sweep's analytic side.
func TestCustomSweepPropagatesErrors(t *testing.T) {
	bad := &core.Config{}
	if _, err := customSweep([]*core.Config{bad}, Options{SkipSimulation: true}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestParallelismInvariance is the orchestrator's core guarantee: a sweep
// with any Parallelism value reproduces the sequential run bit for bit.
func TestParallelismInvariance(t *testing.T) {
	spec, err := PaperFigure(4)
	if err != nil {
		t.Fatal(err)
	}
	spec.ClusterCounts = []int{2, 8, 16}
	spec.MessageSizes = []int{512, 1024}
	opts := fastOpts()
	opts.Sim.MeasuredMessages = 1500
	opts.Replications = 3
	opts.Parallelism = 1
	seq, err := runFigure(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 2, 16} {
		opts.Parallelism = p
		par, err := runFigure(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		for si := range seq.Series {
			for i := range seq.Series[si].Clusters {
				if seq.Series[si].Simulated[i] != par.Series[si].Simulated[i] ||
					seq.Series[si].SimCI[i] != par.Series[si].SimCI[i] {
					t.Fatalf("parallelism %d diverged at series %d point %d: %v±%v vs %v±%v",
						p, si, i,
						seq.Series[si].Simulated[i], seq.Series[si].SimCI[i],
						par.Series[si].Simulated[i], par.Series[si].SimCI[i])
				}
			}
		}
	}
}

// TestRunFiguresMatchesIndividualRuns checks the batch facade returns the
// same figures as evaluating them one by one.
func TestRunFiguresMatchesIndividualRuns(t *testing.T) {
	var specs []FigureSpec
	for _, n := range []int{4, 6} {
		spec, err := PaperFigure(n)
		if err != nil {
			t.Fatal(err)
		}
		spec.ClusterCounts = []int{4, 16}
		spec.MessageSizes = []int{512}
		specs = append(specs, spec)
	}
	opts := fastOpts()
	opts.Sim.MeasuredMessages = 1200
	batch, err := runFigures(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 {
		t.Fatalf("batch results = %d", len(batch))
	}
	for i, spec := range specs {
		single, err := runFigure(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		for si := range single.Series {
			for pi := range single.Series[si].Clusters {
				if single.Series[si].Simulated[pi] != batch[i].Series[si].Simulated[pi] ||
					single.Series[si].Analytic[pi] != batch[i].Series[si].Analytic[pi] {
					t.Fatalf("figure %s diverged between batch and single evaluation", spec.Name)
				}
			}
		}
	}
}

// TestCustomSweepParallelismInvariance pins a custom sweep (RunPointsCtx
// over PointBatch) to identical output across pool sizes.
func TestCustomSweepParallelismInvariance(t *testing.T) {
	var cfgs []*core.Config
	for _, lambda := range []float64{10, 30, 50} {
		cfg, err := core.NewSuperCluster(4, 8, lambda, network.GigabitEthernet,
			network.FastEthernet, network.NonBlocking, network.PaperSwitch, 1024)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	opts := fastOpts()
	opts.Sim.MeasuredMessages = 1200
	opts.Parallelism = 1
	seq, err := customSweep(cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 0
	par, err := customSweep(cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if seq[i].Simulated != par[i].Simulated || seq[i].SimCI != par[i].SimCI {
			t.Fatalf("config %d diverged: %v±%v vs %v±%v", i,
				seq[i].Simulated, seq[i].SimCI, par[i].Simulated, par[i].SimCI)
		}
	}
}

// TestPrecisionSweepParallelismInvariance pins the adaptive-stopping sweep
// to bit-identical output — estimates, replication counts, and effective
// sample sizes — at every parallelism level.
func TestPrecisionSweepParallelismInvariance(t *testing.T) {
	spec, err := PaperFigure(4)
	if err != nil {
		t.Fatal(err)
	}
	spec.ClusterCounts = []int{2, 16}
	spec.MessageSizes = []int{1024}
	opts := fastOpts()
	opts.Sim.MeasuredMessages = 2000
	opts.Precision = &output.Precision{RelWidth: 0.05, MaxReps: 16}
	opts.Parallelism = 1
	seq, err := runFigure(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 4} {
		opts.Parallelism = p
		par, err := runFigure(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq.Series[0].Clusters {
			s, q := seq.Series[0], par.Series[0]
			if s.Simulated[i] != q.Simulated[i] || s.Stats[i] != q.Stats[i] {
				t.Fatalf("parallelism %d diverged at point %d: %+v vs %+v",
					p, i, s.Stats[i], q.Stats[i])
			}
			if s.Stats[i].Reps < 3 || s.Stats[i].ESS <= 0 {
				t.Fatalf("implausible precision stats at point %d: %+v", i, s.Stats[i])
			}
		}
	}
}

// TestRunFigureMatchesRunReplications pins the orchestrator's per-point
// aggregation to sim.RunReplicationsCtx (they must share seed derivation
// and the aggregation fold).
func TestRunFigureMatchesRunReplications(t *testing.T) {
	spec, err := PaperFigure(4)
	if err != nil {
		t.Fatal(err)
	}
	spec.ClusterCounts = []int{8}
	spec.MessageSizes = []int{1024}
	opts := fastOpts()
	opts.Sim.MeasuredMessages = 1500
	res, err := runFigure(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.PaperConfig(spec.Scenario, 8, 1024, spec.Arch)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sim.RunReplicationsCtx(context.Background(), cfg, opts.Sim, opts.Replications, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Series[0].Simulated[0] != agg.MeanLatency || res.Series[0].SimCI[0] != agg.CI95 {
		t.Fatalf("orchestrator %v±%v disagrees with RunReplications %v±%v",
			res.Series[0].Simulated[0], res.Series[0].SimCI[0], agg.MeanLatency, agg.CI95)
	}
}

func TestSimulationMatchesDefaultSeedDeterminism(t *testing.T) {
	spec, err := PaperFigure(4)
	if err != nil {
		t.Fatal(err)
	}
	spec.ClusterCounts = []int{4}
	spec.MessageSizes = []int{512}
	opts := fastOpts()
	opts.Sim.Seed = 99
	opts.Replications = 1
	a, err := runFigure(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runFigure(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Series[0].Simulated[0] != b.Series[0].Simulated[0] {
		t.Fatal("sweep is not reproducible with fixed seed")
	}
}

var _ = sim.DefaultOptions // keep import for clarity of fastOpts

// TestSeriesCarryArrival: figure series must name the arrival process and
// its SCV, defaulting to the paper's Poisson baseline.
func TestSeriesCarryArrival(t *testing.T) {
	spec, err := PaperFigure(4)
	if err != nil {
		t.Fatal(err)
	}
	spec.ClusterCounts = []int{4}
	spec.MessageSizes = []int{512}
	opts := fastOpts()
	opts.SkipSimulation = true
	res, err := runFigure(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Series[0].Arrival != "poisson" || res.Series[0].ArrivalSCV != 1 {
		t.Fatalf("default series arrival = %q SCV %v", res.Series[0].Arrival, res.Series[0].ArrivalSCV)
	}
	mmpp, err := workload.NewMMPP(10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	opts.Sim.Arrival = mmpp
	res, err = runFigure(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Series[0].Arrival != mmpp.Name() || res.Series[0].ArrivalSCV != mmpp.SCV() {
		t.Fatalf("mmpp series arrival = %q SCV %v", res.Series[0].Arrival, res.Series[0].ArrivalSCV)
	}
}

// TestRunPointsArrivalOverride: a per-point arrival override must reach
// both the simulation and the analytic side (via the SCV correction).
func TestRunPointsArrivalOverride(t *testing.T) {
	cfg, err := core.PaperConfig(core.Case1, 4, 1024, network.NonBlocking)
	if err != nil {
		t.Fatal(err)
	}
	mmpp, err := workload.NewMMPP(10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	points := []PointSpec{
		{Cfg: cfg, Locality: -1},
		{Cfg: cfg, Arrival: mmpp, Locality: -1},
	}
	opts := fastOpts()
	opts.Sim.MeasuredMessages = 2000
	res, err := runPoints(points, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Analytic <= res[0].Analytic {
		t.Fatalf("G/G/1-corrected analytic %.6f not above M/M/1 %.6f",
			res[1].Analytic, res[0].Analytic)
	}
	if res[1].Simulated == res[0].Simulated {
		t.Fatal("arrival override did not reach the simulation")
	}
}

// TestFigureBatchRejectsScenario: figures are stationary, so a figure
// batch refuses a fault timeline instead of reporting the faulted
// horizon's mean in the simulated column; a custom sweep of the same
// configuration takes it and reports the transient side.
func TestFigureBatchRejectsScenario(t *testing.T) {
	spec, err := PaperFigure(4)
	if err != nil {
		t.Fatal(err)
	}
	spec.MessageSizes, spec.ClusterCounts = []int{1024}, []int{4}
	opts := fastOpts()
	opts.Replications = 1
	opts.Scenario = &scenario.Spec{HorizonS: 0.12, SLOLatencyMS: 3, Events: []scenario.Event{
		{TS: 0.04, Action: "fail", Target: "cluster:largest", Policy: "drop"},
	}}
	if _, err := runFigures([]FigureSpec{spec}, opts); err == nil || !strings.Contains(err.Error(), "stationary") {
		t.Fatalf("figure batch with a scenario: err %v, want a stationary-figures error", err)
	}
	cfg, err := core.PaperConfig(spec.Scenario, 4, 1024, spec.Arch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runPoints([]PointSpec{{Cfg: cfg, Locality: -1}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := res[0].Dynamic; d == nil || len(d.Series.Slices) != 20 {
		t.Fatalf("dynamic point reported %+v, want a 20-slice transient side", d)
	}
}
