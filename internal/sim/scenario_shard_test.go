package sim

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/progress"
	"hmscs/internal/scenario"
)

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

// TestScenarioShardedBitIdentical extends the determinism suite to
// dynamic runs: fault/repair timelines under every policy, cluster
// churn, and a time-varying rate profile must reproduce the sequential
// Result — including every timestamped sample — at every shard count.
func TestScenarioShardedBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		spec *scenario.Spec
	}{
		{"fault-repair-drop", &scenario.Spec{HorizonS: 0.4, Events: []scenario.Event{
			{TS: 0.1, Action: "fail", Target: "cluster:largest", Policy: "drop"},
			{TS: 0.25, Action: "repair", Target: "cluster:largest"},
		}}},
		{"requeue-icn1", &scenario.Spec{HorizonS: 0.4, Events: []scenario.Event{
			{TS: 0.08, Action: "fail", Target: "icn1:2", Policy: "requeue"},
			{TS: 0.2, Action: "repair", Target: "icn1:2"},
		}}},
		{"reroute-icn1", &scenario.Spec{HorizonS: 0.4, Events: []scenario.Event{
			{TS: 0.08, Action: "fail", Target: "icn1:5", Policy: "reroute"},
			{TS: 0.22, Action: "repair", Target: "icn1:5"},
		}}},
		{"icn2-requeue", &scenario.Spec{HorizonS: 0.4, Events: []scenario.Event{
			{TS: 0.12, Action: "fail", Target: "icn2", Policy: "requeue"},
			{TS: 0.18, Action: "repair", Target: "icn2"},
		}}},
		{"churn", &scenario.Spec{HorizonS: 0.4, InitialDown: []string{"cluster:7"}, Events: []scenario.Event{
			{TS: 0.15, Action: "repair", Target: "cluster:7"},
			{TS: 0.28, Action: "fail", Target: "node:3"},
			{TS: 0.33, Action: "repair", Target: "node:3"},
		}}},
		{"flash-profile", &scenario.Spec{HorizonS: 0.4,
			Profile: &scenario.ProfileSpec{Kind: "flash", PeakFactor: 4, StartS: 0.1, RampS: 0.05, HoldS: 0.1},
			Events: []scenario.Event{
				{TS: 0.2, Action: "fail", Target: "ecn1:1", Policy: "drop"},
				{TS: 0.3, Action: "repair", Target: "ecn1:1"},
			}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := shardCfg(t, 40, network.NonBlocking)
			cs, err := scenario.CompileSim(tc.spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			opts := dynOpts(11, cs)
			seq, err := Run(cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(seq.SampleTimes) == 0 {
				t.Fatal("dynamic run recorded no timestamped samples")
			}
			for _, shards := range []int{1, 2, 8} {
				o := opts
				o.Shards = shards
				got, err := Run(cfg, o)
				if err != nil {
					t.Fatal(err)
				}
				requireIdenticalDynamic(t, tc.name, seq, got)
			}
		})
	}
}

// TestScenarioFaultOnWindowBoundary pins the boundary case: the sharded
// engine advances in windows one ICN2 mean service time wide, so a fault
// at an exact multiple of that width can coincide with a window edge, and
// a repair at exactly the horizon rides the final horizon-inclusive
// window. Both must still be bit-identical to the sequential run.
func TestScenarioFaultOnWindowBoundary(t *testing.T) {
	cfg := shardCfg(t, 400, network.NonBlocking)
	built, err := cfg.BuildCenters()
	if err != nil {
		t.Fatal(err)
	}
	w := built.ICN2.MeanServiceTime(cfg.MessageBytes) // the sharded window width
	spec := &scenario.Spec{
		HorizonS: 2048 * w,
		Events: []scenario.Event{
			// ICN2 is the bottleneck at this load, so its queue is non-empty
			// at the fail instant and the drop policy actually evicts work.
			{TS: 512 * w, Action: "fail", Target: "icn2", Policy: "drop"},
			{TS: 2048 * w, Action: "repair", Target: "icn2"},
		},
	}
	cs, err := scenario.CompileSim(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := dynOpts(23, cs)
	seq, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Dropped == 0 {
		t.Fatal("expected the second-stage failure to drop in-flight work")
	}
	for _, shards := range []int{1, 2, 8} {
		o := opts
		o.Shards = shards
		got, err := Run(cfg, o)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalDynamic(t, "window-boundary", seq, got)
	}
}

// runResults drives one configuration's replications through the
// fixed-grid driver, returning them in replication order.
func runResults(ctx context.Context, cfg *core.Config, opts Options, n, parallelism int, prog progress.Func) ([]*Result, error) {
	res, err := RunUnitsCtx(ctx, []Unit{{Cfg: cfg, Opts: opts}}, n, parallelism, prog, nil)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// TestScenarioReplicationsComposeWithParallel runs a dynamic replication
// set at every (shards, parallelism) pairing: each replication's Result —
// down to the timestamped samples the transient estimator folds — must
// match the fully sequential execution, so time-sliced output is
// identical however the work is spread across cores.
func TestScenarioReplicationsComposeWithParallel(t *testing.T) {
	cfg := shardCfg(t, 40, network.NonBlocking)
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
	for _, parallelism := range []int{1, 8} {
		for _, shards := range []int{1, 2, 8} {
			o := opts
			o.Shards = shards
			got, err := runResults(context.Background(), cfg, o, 3, parallelism, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(base) {
				t.Fatalf("shards=%d parallelism=%d: %d replications, want %d", shards, parallelism, len(got), len(base))
			}
			for r := range got {
				requireIdenticalDynamic(t, "replication", base[r], got[r])
			}
		}
	}
}

// TestScenarioCancelMidFaultDrainsPool extends the replication pool's
// goroutine-leak pin to dynamic runs: the timeline fails the largest
// cluster almost immediately and repairs it only at the horizon, so a
// cancellation fired after the first completed replication lands while
// every other running replication still has its repair event pending.
// The pool — including the per-replication shard pools — must drain
// fully before RunUnitsCtx returns.
func TestScenarioCancelMidFaultDrainsPool(t *testing.T) {
	cfg := shardCfg(t, 40, network.NonBlocking)
	spec := &scenario.Spec{HorizonS: 0.4, Events: []scenario.Event{
		{TS: 0.01, Action: "fail", Target: "cluster:largest", Policy: "requeue"},
		{TS: 0.39, Action: "repair", Target: "cluster:largest"},
	}}
	cs, err := scenario.CompileSim(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		opts := dynOpts(7, cs)
		opts.Shards = shards
		var done int32
		_, err := runResults(ctx, cfg, opts, 64, 4, func(progress.Event) {
			if atomic.AddInt32(&done, 1) == 1 {
				cancel() // mid-fault: later replications' repairs are pending
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: err = %v, want context.Canceled", shards, err)
		}
		if n := atomic.LoadInt32(&done); n > 60 {
			t.Fatalf("shards=%d: %d of 64 replications ran after cancellation", shards, n)
		}
		// No worker goroutine may outlive the call; allow the runtime a
		// moment to reap the cancelled workers.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("shards=%d: %d goroutines before, %d after — pool leaked", shards, before, after)
		}
	}
}
