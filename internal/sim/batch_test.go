package sim

import (
	"context"
	"math"
	"sync"
	"testing"

	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/output"
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
	w := u.window()
	tr, err := output.NewTransient(w.Horizon, w.Slice, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	ref := &Transient{}
	for _, r := range rs {
		tr.AddReplication(r.SampleTimes, r.Sample)
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
// stationary unit, a dynamic unit and a dynamic unit judged against an
// overriding window folds, at every parallelism, exactly what running
// every replication first and adding them in order gives, and the
// stationary unit gets no transient side.
func TestRunBatchTransientFold(t *testing.T) {
	cfg := wideCfg(t, 40, network.NonBlocking)
	cs := batchScenario(t, cfg)
	strict := cs.Window
	strict.SLO = 0.004
	units := []Unit{
		{Cfg: cfg, Opts: quickOpts(3, 1000)},
		{Cfg: cfg, Opts: dynOpts(5, cs)},
		{Cfg: cfg, Opts: dynOpts(9, cs), Window: &strict},
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
		t.Fatal("the overriding window's SLO did not change the recovery metric; tighten it")
	}
}

// TestRunBatchReleasesSeriesInOrder: the fold holds only the series
// that finished out of order. At parallelism 1 every replication's
// series is released before the next one runs; at parallelism 4, with
// replication 0 held back until the other three have finished, the
// fold parks them and still adds all four in replication order.
func TestRunBatchReleasesSeriesInOrder(t *testing.T) {
	cfg := wideCfg(t, 40, network.NonBlocking)
	u := Unit{Cfg: cfg, Opts: dynOpts(5, batchScenario(t, cfg))}
	want := referenceTransient(t, u, 4)

	var returned []*Result
	sequential := func(_ context.Context, _, rep int, cfg *core.Config, opts Options) (*Result, error) {
		for i, r := range returned {
			if r.Sample != nil || r.SampleTimes != nil {
				t.Errorf("replication %d's series is still held when replication %d starts", i, rep)
			}
		}
		r, err := Run(cfg, opts)
		returned = append(returned, r)
		return r, err
	}
	sums, err := RunBatchCtx(context.Background(), []Unit{u}, Schedule{Reps: 4}, 1, nil, sequential)
	if err != nil {
		t.Fatal(err)
	}
	requireSameTransient(t, "parallelism 1", want, sums[0].Transient)

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
	sums, err = RunBatchCtx(context.Background(), []Unit{u}, Schedule{Reps: 4}, 4, nil, reversed)
	if err != nil {
		t.Fatal(err)
	}
	requireSameTransient(t, "replication 0 last", want, sums[0].Transient)
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
	for _, u := range []Unit{{Cfg: cfg, Opts: dynOpts(5, cs)}, {Cfg: cfg, Opts: quickOpts(5, 1000), Window: &cs.Window}} {
		if _, err := RunBatchCtx(context.Background(), []Unit{u}, Schedule{Precision: &output.Precision{RelWidth: 0.1}}, 1, nil, run); err == nil {
			t.Fatal("precision batch accepted a dynamic unit")
		}
	}
	if ran {
		t.Fatal("a replication ran before the batch was rejected")
	}
}
