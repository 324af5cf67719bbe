package sim

import (
	"context"
	"testing"

	"hmscs/internal/network"
)

// requireIdenticalResults demands bit-identical outcomes: every scalar,
// every raw sample, every per-centre statistic.
func requireIdenticalResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Latency.Mean() != b.Latency.Mean() || a.Latency.Count() != b.Latency.Count() {
		t.Fatalf("%s: latency accumulators differ: %v/%d vs %v/%d",
			label, a.Latency.Mean(), a.Latency.Count(), b.Latency.Mean(), b.Latency.Count())
	}
	if a.SimTime != b.SimTime || a.Generated != b.Generated || a.Measured != b.Measured {
		t.Fatalf("%s: run shapes differ: (%v,%d,%d) vs (%v,%d,%d)",
			label, a.SimTime, a.Generated, a.Measured, b.SimTime, b.Generated, b.Measured)
	}
	if a.Throughput != b.Throughput || a.EffectiveLambda != b.EffectiveLambda || a.TimedOut != b.TimedOut {
		t.Fatalf("%s: aggregate metrics differ", label)
	}
	if len(a.Sample) != len(b.Sample) {
		t.Fatalf("%s: sample lengths differ: %d vs %d", label, len(a.Sample), len(b.Sample))
	}
	for i := range a.Sample {
		if a.Sample[i] != b.Sample[i] {
			t.Fatalf("%s: sample %d differs: %v vs %v", label, i, a.Sample[i], b.Sample[i])
		}
	}
	if len(a.Centers) != len(b.Centers) {
		t.Fatalf("%s: centre counts differ", label)
	}
	for i := range a.Centers {
		if a.Centers[i] != b.Centers[i] {
			t.Fatalf("%s: centre %s stats differ: %+v vs %+v",
				label, a.Centers[i].Name, a.Centers[i], b.Centers[i])
		}
	}
}

// TestRunReplicationsParallelismInvariant pins the replication aggregate
// to the same values for every worker-pool size.
func TestRunReplicationsParallelismInvariant(t *testing.T) {
	cfg := smallCfg(t, 50, network.NonBlocking)
	opts := quickOpts(100, 1000)
	base, err := RunReplicationsCtx(context.Background(), cfg, opts, 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 2, 8} {
		got, err := RunReplicationsCtx(context.Background(), cfg, opts, 4, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.MeanLatency != base.MeanLatency || got.CI95 != base.CI95 ||
			got.Throughput != base.Throughput || got.BottleneckUtilization != base.BottleneckUtilization {
			t.Fatalf("parallelism %d changed the aggregate: %+v vs %+v", p, got, base)
		}
		for i := range base.PerReplication {
			if got.PerReplication[i] != base.PerReplication[i] {
				t.Fatalf("parallelism %d changed replication %d: %v vs %v",
					p, i, got.PerReplication[i], base.PerReplication[i])
			}
		}
	}
}

// TestSampleTruncationDoesNotRetainOversizedArray is the MaxSimTime
// truncation fix: a timed-out run must not keep a backing array sized for
// the full request.
func TestSampleTruncationDoesNotRetainOversizedArray(t *testing.T) {
	cfg := smallCfg(t, 50, network.NonBlocking)
	opts := quickOpts(10, 100000) // far more than 0.5 s can deliver
	opts.WarmupMessages = 0
	opts.RecordSample = true
	opts.MaxSimTime = 0.5
	res, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("run should have timed out")
	}
	if len(res.Sample) == 0 {
		t.Fatal("expected some samples before the time limit")
	}
	if c := cap(res.Sample); c >= 100000/2 {
		t.Fatalf("timed-out run retained cap %d for %d samples", c, len(res.Sample))
	}
}

// TestSampleFullRunStillExact checks the untruncated path still collects
// exactly MeasuredMessages samples with a right-sized allocation.
func TestSampleFullRunStillExact(t *testing.T) {
	cfg := smallCfg(t, 50, network.NonBlocking)
	opts := quickOpts(4, 800)
	opts.RecordSample = true
	res, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sample) != 800 || cap(res.Sample) != 800 {
		t.Fatalf("sample len/cap = %d/%d, want 800/800", len(res.Sample), cap(res.Sample))
	}
}
