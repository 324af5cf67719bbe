package sim

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/output"
	"hmscs/internal/progress"
	"hmscs/internal/scenario"
)

// batchScenario compiles a drop fault on the largest cluster of wideCfg's
// system against cfg.
func batchScenario(t *testing.T, cfg *core.Config) *scenario.CompiledSim {
	t.Helper()
	cs, err := scenario.CompileSim(&scenario.Spec{HorizonS: 0.3, SliceS: 0.03, SLOLatencyMS: 50, Events: []scenario.Event{
		{TS: 0.1, Action: "fail", Target: "cluster:largest", Policy: "drop"},
		{TS: 0.2, Action: "repair", Target: "cluster:largest"},
	}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// referenceTransient folds a unit's replications the plain way: all of
// them run first, then each is added in replication order.
func referenceTransient(t *testing.T, u Unit, reps int) *Transient {
	t.Helper()
	rs, err := runResults(context.Background(), u.Cfg, u.Opts, reps, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := u.Opts.Scenario.Window
	tr, err := output.NewTransient(w.Horizon, w.Slice, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	ref := &Transient{}
	for _, r := range rs {
		if err := tr.AddReplication(r.SliceSums, r.SliceCounts); err != nil {
			t.Fatal(err)
		}
		ref.Dropped += r.Dropped
		ref.Rerouted += r.Rerouted
	}
	ref.Series = tr.Series()
	ref.RecoveryS = output.RecoveryTime(ref.Series, w.FaultAt, w.SLO)
	return ref
}

// equalBits reports whether two floats are the same value bit for bit
// (so NaN equals NaN).
func equalBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func requireSameTransient(t *testing.T, label string, want, got *Transient) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no transient result", label)
	}
	if !equalBits(want.RecoveryS, got.RecoveryS) || want.Dropped != got.Dropped || want.Rerouted != got.Rerouted {
		t.Fatalf("%s: recovery %v / drops %d / reroutes %d, want %v / %d / %d",
			label, got.RecoveryS, got.Dropped, got.Rerouted, want.RecoveryS, want.Dropped, want.Rerouted)
	}
	if len(want.Series.Slices) != len(got.Series.Slices) {
		t.Fatalf("%s: %d slices, want %d", label, len(got.Series.Slices), len(want.Series.Slices))
	}
	for i, w := range want.Series.Slices {
		g := got.Series.Slices[i]
		if !equalBits(w.Mean, g.Mean) || !equalBits(w.HalfWidth, g.HalfWidth) || w.Reps != g.Reps || w.Count != g.Count {
			t.Fatalf("%s: slice %d is %+v, want %+v", label, i, g, w)
		}
	}
}

// TestRunBatchTransientFold pins the one transient fold: a batch with a
// stationary unit, a dynamic unit and a dynamic unit whose timeline sets
// a stricter latency objective folds, at every parallelism, exactly what
// running every replication first and adding them in order gives, and
// the stationary unit gets no transient side.
func TestRunBatchTransientFold(t *testing.T) {
	cfg := wideCfg(t, 40, network.NonBlocking)
	cs := batchScenario(t, cfg)
	strict := *cs
	strict.SLO = 0.004
	units := []Unit{
		{Cfg: cfg, Opts: quickOpts(3, 1000)},
		{Cfg: cfg, Opts: dynOpts(5, cs)},
		{Cfg: cfg, Opts: dynOpts(9, &strict)},
	}
	const reps = 5
	want := []*Transient{nil, referenceTransient(t, units[1], reps), referenceTransient(t, units[2], reps)}
	for _, parallel := range []int{1, 3, 8} {
		sums, err := RunBatchCtx(context.Background(), units, Schedule{Reps: reps}, parallel, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sums[0].Transient != nil {
			t.Fatalf("parallelism %d: stationary unit has a transient side", parallel)
		}
		for i := 1; i < len(units); i++ {
			requireSameTransient(t, "unit", want[i], sums[i].Transient)
		}
		for i, s := range sums {
			if s.Est.Reps != reps || s.Est.Mean != s.Agg.MeanLatency || s.Est.HalfWidth != s.Agg.CI95 || s.Prec != nil {
				t.Fatalf("parallelism %d unit %d: estimate %+v does not describe the fixed aggregate", parallel, i, s.Est)
			}
		}
	}
	if equalBits(want[1].RecoveryS, want[2].RecoveryS) {
		t.Fatal("the stricter SLO did not change the recovery metric; tighten it")
	}
}

// TestRunBatchFoldsInReplicationOrder: the fold adds replications in
// replication order, not in the order they finish. At parallelism 4,
// with replication 0 held back until the other three have finished, the
// transient side is what adding all four in replication order gives.
func TestRunBatchFoldsInReplicationOrder(t *testing.T) {
	cfg := wideCfg(t, 40, network.NonBlocking)
	u := Unit{Cfg: cfg, Opts: dynOpts(5, batchScenario(t, cfg))}
	want := referenceTransient(t, u, 4)

	var mu sync.Mutex
	others := sync.NewCond(&mu)
	finished := 0
	reversed := func(_ context.Context, _, rep int, cfg *core.Config, opts Options) (*Result, error) {
		mu.Lock()
		for rep == 0 && finished < 3 {
			others.Wait()
		}
		mu.Unlock()
		r, err := Run(cfg, opts)
		mu.Lock()
		finished++
		others.Broadcast()
		mu.Unlock()
		return r, err
	}
	sums, err := RunBatchCtx(context.Background(), []Unit{u}, Schedule{Reps: 4}, 4, nil, reversed)
	if err != nil {
		t.Fatal(err)
	}
	requireSameTransient(t, "replication 0 last", want, sums[0].Transient)
}

// TestRunBatchRejectsMisshapenBins: a dynamic unit's replication whose
// slice bins do not cover its window's slices fails the batch instead
// of folding into a wrong series.
func TestRunBatchRejectsMisshapenBins(t *testing.T) {
	cfg := wideCfg(t, 40, network.NonBlocking)
	u := Unit{Cfg: cfg, Opts: dynOpts(5, batchScenario(t, cfg))}
	short := func(_ context.Context, _, _ int, cfg *core.Config, opts Options) (*Result, error) {
		r, err := Run(cfg, opts)
		if err == nil {
			r.SliceSums, r.SliceCounts = r.SliceSums[1:], r.SliceCounts[1:]
		}
		return r, err
	}
	if _, err := RunBatchCtx(context.Background(), []Unit{u}, Schedule{Reps: 2}, 1, nil, short); err == nil {
		t.Fatal("a replication with one slice too few was folded")
	}
}

// TestRunBatchRejectsDynamicPrecision: the stopping rule assumes a
// stationary mean, so a dynamic unit under a precision target fails
// before any replication runs.
func TestRunBatchRejectsDynamicPrecision(t *testing.T) {
	cfg := wideCfg(t, 40, network.NonBlocking)
	cs := batchScenario(t, cfg)
	ran := false
	run := func(context.Context, int, int, *core.Config, Options) (*Result, error) {
		ran = true
		return &Result{}, nil
	}
	units := []Unit{{Cfg: cfg, Opts: quickOpts(5, 1000)}, {Cfg: cfg, Opts: dynOpts(5, cs)}}
	if _, err := RunBatchCtx(context.Background(), units, Schedule{Precision: &output.Precision{RelWidth: 0.1}}, 1, nil, run); err == nil {
		t.Fatal("precision batch accepted a dynamic unit")
	}
	if ran {
		t.Fatal("a replication ran before the batch was rejected")
	}
}

// cannedRun is a stub UnitFunc for driver tests: replication rep of
// point p returns a fresh Result whose sample averages means(p, rep),
// with a small deterministic ripple so the per-replication analysis has
// something to truncate.
func cannedRun(means func(point, rep int) float64) UnitFunc {
	return func(_ context.Context, point, rep int, _ *core.Config, _ Options) (*Result, error) {
		m := means(point, rep)
		sample := make([]float64, 600)
		for i := range sample {
			sample[i] = m * (1 + 0.01*float64(i%7-3))
		}
		return &Result{Sample: sample, Measured: int64(len(sample)), Generated: int64(len(sample))}, nil
	}
}

// TestRunBatchEventOrder pins what the driver reports and in which
// order at parallelism 1. A fixed batch emits one UnitFinished per
// replication, unit-major. An adaptive batch emits, per scheduling
// round and in unit order, one event per still-running unit carrying
// the replications folded so far: UnitEstimate while the stopping rule
// is unmet, then one UnitFinished whose Rep is the unit's final count.
func TestRunBatchEventOrder(t *testing.T) {
	units := []Unit{{Opts: quickOpts(1, 1000)}, {Opts: quickOpts(2, 1000)}}
	var events []progress.Event
	record := func(ev progress.Event) { events = append(events, ev) }
	steady := cannedRun(func(int, int) float64 { return 1 })
	if _, err := RunBatchCtx(context.Background(), units, Schedule{Reps: 3}, 1, record, steady); err != nil {
		t.Fatal(err)
	}
	var want []progress.Event
	for u := 0; u < 2; u++ {
		for rep := 0; rep < 3; rep++ {
			want = append(want, progress.Event{Kind: progress.UnitFinished, Unit: u, Units: 2, Rep: rep})
		}
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("fixed batch events:\n%+v\nwant\n%+v", events, want)
	}

	// Unit 0 is steady and converges on its first round; unit 1
	// alternates between two means and runs to the replication cap.
	events = nil
	noisy := cannedRun(func(point, rep int) float64 {
		if point == 0 {
			return 1 + 0.001*float64(rep%2)
		}
		return 1 + 0.5*float64(2*(rep%2)-1)
	})
	prec := &output.Precision{RelWidth: 0.05, MaxReps: 12}
	sums, err := RunBatchCtx(context.Background(), units, Schedule{Precision: prec}, 1, record, noisy)
	if err != nil {
		t.Fatal(err)
	}
	running := []int{0, 1}
	last := []int{0, 0}
	rounds := 0
	for len(events) > 0 {
		rounds++
		if len(events) < len(running) {
			t.Fatalf("round %d: %d events for %d running units", rounds, len(events), len(running))
		}
		var still []int
		for i, u := range running {
			ev := events[i]
			if ev.Unit != u || ev.Units != 2 {
				t.Fatalf("round %d event %d: unit %d of %d, want unit %d of 2", rounds, i, ev.Unit, ev.Units, u)
			}
			if ev.Rep <= last[u] {
				t.Fatalf("round %d: unit %d reports %d replications after %d", rounds, u, ev.Rep, last[u])
			}
			last[u] = ev.Rep
			switch ev.Kind {
			case progress.UnitFinished:
				if ev.Rep != sums[u].Prec.Estimate.Reps {
					t.Fatalf("unit %d finished at %d replications, its estimate folds %d", u, ev.Rep, sums[u].Prec.Estimate.Reps)
				}
			case progress.UnitEstimate:
				still = append(still, u)
			default:
				t.Fatalf("round %d: unexpected event kind %v", rounds, ev.Kind)
			}
		}
		events, running = events[len(running):], still
	}
	if len(running) != 0 {
		t.Fatalf("units %v never finished", running)
	}
	if rounds < 3 || last[0] != 4 || last[1] != 12 {
		t.Fatalf("%d rounds, units stopped at %v replications; want unit 0 at the 4-replication pilot and unit 1 at the cap of 12 over at least 3 rounds", rounds, last)
	}
}
