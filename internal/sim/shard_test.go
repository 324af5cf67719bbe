package sim

import (
	"context"
	"strings"
	"testing"

	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/output"
	"hmscs/internal/rng"
	"hmscs/internal/trace"
	"hmscs/internal/workload"
)

// shardCfg is an 8-cluster configuration, so the suite can exercise up to
// 8 shards (each shard must own at least one cluster).
func shardCfg(t *testing.T, lambda float64, arch network.Architecture) *core.Config {
	t.Helper()
	cfg, err := core.NewSuperCluster(8, 4, lambda, network.GigabitEthernet,
		network.FastEthernet, arch, network.PaperSwitch, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestShardedBitIdenticalToSequential is the determinism suite's core: for
// a spread of workloads (closed and open loop, Poisson, bursty MMPP and
// trace replay arrivals, deterministic service) the sharded engine must
// reproduce the sequential Result bit for bit at every shard count.
func TestShardedBitIdenticalToSequential(t *testing.T) {
	mmpp, err := workload.NewMMPP(10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.NewTrace([]float64{0, 0.8, 1.0, 1.1, 2.5, 3.0, 3.2, 4.9, 5.0, 6.4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		arch network.Architecture
		mod  func(o *Options)
	}{
		{"poisson-closed", network.NonBlocking, nil},
		{"poisson-blocking", network.Blocking, nil},
		{"open-loop", network.NonBlocking, func(o *Options) { o.OpenLoop = true }},
		{"mmpp", network.NonBlocking, func(o *Options) { o.Arrival = mmpp }},
		{"trace-arrivals", network.NonBlocking, func(o *Options) { o.Arrival = tr }},
		{"deterministic-service", network.NonBlocking, func(o *Options) {
			o.ServiceDist = rng.Deterministic{Value: 1}
		}},
		{"hotspot-pattern", network.NonBlocking, func(o *Options) {
			o.Pattern = workload.Hotspot{Node: 9, Fraction: 0.3}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := shardCfg(t, 40, tc.arch)
			opts := quickOpts(91, 1500)
			opts.RecordSample = true
			if tc.mod != nil {
				tc.mod(&opts)
			}
			seq, err := Run(cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 3, 8} {
				o := opts
				o.Shards = shards
				got, err := Run(cfg, o)
				if err != nil {
					t.Fatal(err)
				}
				requireIdenticalResults(t, tc.name, seq, got)
			}
		})
	}
}

// TestShardedMaxSimTimeBitIdentical pins the timed-out path: the final
// window is horizon-inclusive at MaxSimTime, exactly like the sequential
// engine's deadline return.
func TestShardedMaxSimTimeBitIdentical(t *testing.T) {
	cfg := shardCfg(t, 40, network.NonBlocking)
	opts := quickOpts(7, 100000)
	opts.RecordSample = true
	opts.MaxSimTime = 0.5
	seq, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.TimedOut {
		t.Fatal("expected the sequential run to time out")
	}
	for _, shards := range []int{2, 3, 8} {
		o := opts
		o.Shards = shards
		got, err := Run(cfg, o)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalResults(t, "timed-out", seq, got)
	}
}

// TestShardedReplicationsComposeWithParallel runs the replication pool at
// several worker counts with intra-replication sharding on: the aggregate
// must match the fully sequential execution.
func TestShardedReplicationsComposeWithParallel(t *testing.T) {
	cfg := shardCfg(t, 40, network.NonBlocking)
	opts := quickOpts(100, 600)
	base, err := RunReplicationsCtx(context.Background(), cfg, opts, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{1, 8} {
		for _, shards := range []int{2, 8} {
			o := opts
			o.Shards = shards
			got, err := RunReplicationsCtx(context.Background(), cfg, o, 3, parallelism, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.MeanLatency != base.MeanLatency || got.CI95 != base.CI95 ||
				got.Throughput != base.Throughput || got.BottleneckUtilization != base.BottleneckUtilization {
				t.Fatalf("parallelism=%d shards=%d changed the aggregate: %+v vs %+v",
					parallelism, shards, got, base)
			}
		}
	}
}

// TestShardedValidation pins the pointed configuration errors.
func TestShardedValidation(t *testing.T) {
	cfg := shardCfg(t, 40, network.NonBlocking) // 8 clusters

	opts := quickOpts(1, 100)
	opts.Shards = 9
	if _, err := Run(cfg, opts); err == nil || !strings.Contains(err.Error(), "each shard must own at least one cluster") {
		t.Fatalf("want a pointed shards-vs-clusters error, got %v", err)
	}

	opts = quickOpts(1, 100)
	opts.Shards = -1
	if _, err := Run(cfg, opts); err == nil || !strings.Contains(err.Error(), "negative shard count") {
		t.Fatalf("want a negative-shards error, got %v", err)
	}

	opts = quickOpts(1, 100)
	opts.Shards = 2
	opts.Trace = trace.NewRecorder(16)
	if _, err := Run(cfg, opts); err == nil || !strings.Contains(err.Error(), "sequential-only") {
		t.Fatalf("want a trace-vs-shards error, got %v", err)
	}
}

// TestShardedPrecisionBitIdentical extends the determinism guarantee to
// precision mode: the adaptive stopping rule must make the same decisions
// — same estimate, same replication count, same total event count — when
// each replication runs sharded, at every (shards, parallelism) pairing.
// par.Workers shrinks the outer pool so shards>1 composes with -parallel
// without oversubscribing, which must not change the schedule either.
func TestShardedPrecisionBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several adaptive replication sets")
	}
	cfg := shardCfg(t, 100, network.NonBlocking)
	opts := quickOpts(3, 4000)
	prec := output.Precision{RelWidth: 0.05, MaxReps: 24}
	base, err := runPrecision(cfg, opts, prec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 8} {
		for _, parallelism := range []int{1, 8} {
			o := opts
			o.Shards = shards
			got, err := runPrecision(cfg, o, prec, parallelism)
			if err != nil {
				t.Fatal(err)
			}
			if got.Estimate != base.Estimate ||
				got.MeanLatency != base.MeanLatency ||
				got.TotalGenerated != base.TotalGenerated ||
				got.TruncatedFrac != base.TruncatedFrac {
				t.Fatalf("shards=%d parallelism=%d diverged from sequential:\n%+v\nvs\n%+v",
					shards, parallelism, got.Estimate, base.Estimate)
			}
		}
	}
	if base.Estimate.Reps < 3 {
		t.Fatalf("implausible estimate: %+v", base.Estimate)
	}
}
