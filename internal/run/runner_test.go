package run

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hmscs/internal/progress"
	"hmscs/internal/telemetry"
)

// tinySweep returns a sweep experiment with enough (point × replication)
// units that cancellation must land long before the batch would finish.
func tinySweep() *Experiment {
	e := NewExperiment(KindSweep)
	e.Sweep.Var = "clusters"
	e.Sweep.Ints = "1,2,4,8,16,32"
	e.Run.Messages = 2000
	e.Run.Reps = 8
	return e
}

// TestRunCancelAbortsWithinOneUnit pins the Runner's cancellation
// contract: a long sweep cancelled after its first progress event
// returns ctx.Err() without running the batch to the end, at
// parallelism 1 and 8, with no goroutine leaked from the pool.
func TestRunCancelAbortsWithinOneUnit(t *testing.T) {
	for _, parallel := range []int{1, 8} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var events int32
		_, err := Run(ctx, tinySweep(), Options{
			Parallelism: parallel,
			Progress: func(ev progress.Event) {
				if atomic.AddInt32(&events, 1) == 1 {
					cancel() // cancel as soon as the first unit completes
				}
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel %d: err = %v, want context.Canceled", parallel, err)
		}
		// 6 points × 8 reps = 48 units; cancellation after the first event
		// must stop dispatch, so only the in-flight window may drain.
		if n := atomic.LoadInt32(&events); int(n) > 2*parallel+2 {
			t.Fatalf("parallel %d: %d units ran after cancellation", parallel, n)
		}
		// Drained-pool assertion: no worker goroutines may outlive Run.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("parallel %d: %d goroutines before, %d after — pool leaked", parallel, before, after)
		}
	}
}

func TestRunPreCancelledDoesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, tinySweep(), Options{Parallelism: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunDeadlineExpires(t *testing.T) {
	e := NewExperiment(KindSimulate)
	e.System.Clusters = 32
	e.Precision.RelWidth = 0.005 // far too tight to finish in a millisecond
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := Run(ctx, e, Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunParallelismInvariantRendering pins the redesign's core
// guarantee end to end: the same spec renders byte-identical output at
// every parallelism level, through the Runner and the markdown sink.
func TestRunParallelismInvariantRendering(t *testing.T) {
	e := NewExperiment(KindSweep)
	e.Sweep.Var = "clusters"
	e.Sweep.Ints = "1,2,4"
	e.Run.Messages = 300
	e.Run.Reps = 2
	var outs []string
	for _, parallel := range []int{1, 4} {
		var b strings.Builder
		_, err := Run(context.Background(), e, Options{
			Parallelism: parallel,
			Sinks:       []Sink{NewMarkdownSink(&b)},
		})
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, b.String())
	}
	if outs[0] != outs[1] {
		t.Fatalf("output differs between parallelism 1 and 4:\n%s\n---\n%s", outs[0], outs[1])
	}
	if !strings.Contains(outs[0], "sweep of clusters") {
		t.Fatalf("unexpected output:\n%s", outs[0])
	}
}

// TestTelemetryZeroPerturbation is the instrumentation layer's
// determinism pin (DESIGN.md §12), for both engines: with a stats
// collector attached and without it, the rendered report is
// byte-identical at every -parallel value, the JSONL stream (wall-clock
// timestamps stripped) at parallelism 1 is byte-identical to the same
// run without the collector, and the parallelism-invariant telemetry
// fields (generated messages, replications) agree across every run.
func TestTelemetryZeroPerturbation(t *testing.T) {
	simulate := NewExperiment(KindSimulate)
	simulate.System.Clusters = 4
	simulate.System.Total = 16
	simulate.Run.Messages = 600
	simulate.Run.Warmup = 100
	simulate.Run.Reps = 2

	tsField := regexp.MustCompile(`"ts":"[^"]*"`)
	type result struct {
		key       string
		md, jsonl string
		tel       *telemetry.RunStats
	}
	for _, tc := range []struct {
		name string
		spec *Experiment
	}{
		{"simulate", simulate},
		{"netsim-scenario", loadNetsimSpec(t, "netsim-scenario.json", 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var results []result
			for _, rc := range []struct {
				parallel int
				stats    bool
			}{{1, true}, {1, false}, {2, true}, {2, false}, {4, true}} {
				var md, jl strings.Builder
				opts := Options{
					Parallelism: rc.parallel,
					Sinks:       []Sink{NewMarkdownSink(&md), NewJSONLSink(&jl)},
				}
				if rc.stats {
					opts.Stats = telemetry.NewCollector()
				}
				key := fmt.Sprintf("parallel=%d stats=%v", rc.parallel, rc.stats)
				out, err := Run(context.Background(), tc.spec.Clone(), opts)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				results = append(results, result{
					key:   key,
					md:    md.String(),
					jsonl: tsField.ReplaceAllString(jl.String(), `"ts":"X"`),
					tel:   out.Telemetry,
				})
			}
			base := results[0]
			if base.tel == nil || base.tel.Sim.Events == 0 || base.tel.Replications == 0 {
				t.Fatalf("no telemetry recorded: %+v", base.tel)
			}
			for _, r := range results[1:] {
				if r.md != base.md {
					t.Errorf("%s: markdown differs from %s", r.key, base.key)
				}
				if r.tel.Sim.Generated != base.tel.Sim.Generated || r.tel.Replications != base.tel.Replications {
					t.Errorf("%s: invariant telemetry differs: generated %d vs %d, reps %d vs %d",
						r.key, r.tel.Sim.Generated, base.tel.Sim.Generated, r.tel.Replications, base.tel.Replications)
				}
			}
			// Event order (hence seq assignment) is pinned at parallelism
			// 1, so the stream with the collector must match the one
			// without it byte for byte once wall clocks are normalized.
			if results[0].jsonl != results[1].jsonl {
				t.Errorf("parallel-1 JSONL differs with the stats collector attached:\n%s\n---\n%s",
					results[0].jsonl, results[1].jsonl)
			}
		})
	}
}

// TestRunProgressEventsArriveSerialised checks the emitter contract:
// events reach the callback one at a time and carry the unit universe.
func TestRunProgressEventsArriveSerialised(t *testing.T) {
	e := NewExperiment(KindSimulate)
	e.System.Clusters = 4
	e.Run.Messages = 300
	e.Run.Reps = 3
	var inFlight, max int32
	var count int32
	_, err := Run(context.Background(), e, Options{
		Parallelism: 4,
		Progress: func(ev progress.Event) {
			n := atomic.AddInt32(&inFlight, 1)
			if n > atomic.LoadInt32(&max) {
				atomic.StoreInt32(&max, n)
			}
			if ev.Kind != progress.UnitFinished {
				t.Errorf("unexpected event kind %v in fixed mode", ev.Kind)
			}
			atomic.AddInt32(&count, 1)
			atomic.AddInt32(&inFlight, -1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if max > 1 {
		t.Fatalf("progress callback ran %d times concurrently", max)
	}
	if count != 3 {
		t.Fatalf("saw %d events, want 3 (one per replication)", count)
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	if _, err := Run(context.Background(), nil, Options{}); err == nil {
		t.Fatal("nil experiment accepted")
	}
	if _, err := Run(context.Background(), &Experiment{Kind: "warp"}, Options{}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	e := NewExperiment(KindSweep)
	e.Sweep.Var = "bogus"
	if _, err := Run(context.Background(), e, Options{}); err == nil {
		t.Fatal("bad sweep variable accepted")
	}
}

// TestRunDoesNotMutateCaller pins that Run executes a deep copy: the
// caller's spec keeps its zero-valued sections, and populated sections
// are not written through (Normalize fills defaults, and netsim's
// config resolution overwrites topology fields — both must stay on the
// copy).
func TestRunDoesNotMutateCaller(t *testing.T) {
	e := &Experiment{Kind: KindAnalyze}
	if _, err := Run(context.Background(), e, Options{}); err != nil {
		t.Fatal(err)
	}
	if e.System != nil || e.Run != nil {
		t.Fatal("Run normalized the caller's spec in place")
	}
	e2 := &Experiment{Kind: KindSimulate, Run: &RunSpec{Messages: 300, Reps: 1}}
	if _, err := Run(context.Background(), e2, Options{}); err != nil {
		t.Fatal(err)
	}
	if e2.Run.Seed != 0 || e2.Run.Warmup != 0 {
		t.Fatalf("Run filled defaults through the caller's section: %+v", e2.Run)
	}
}

// failingSink errors on the first event, which must abort the run
// promptly and surface the sink error (not ctx.Canceled).
type failingSink struct{ events int32 }

func (s *failingSink) Event(progress.Event) error {
	atomic.AddInt32(&s.events, 1)
	return errors.New("sink full")
}
func (s *failingSink) Result(*Outcome) error { return nil }

func TestRunSinkErrorAbortsPromptly(t *testing.T) {
	sink := &failingSink{}
	_, err := Run(context.Background(), tinySweep(), Options{
		Parallelism: 4,
		Sinks:       []Sink{sink},
	})
	if err == nil || !strings.Contains(err.Error(), "sink full") {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	// The failing sink cancelled the run: only the in-flight window of
	// the 48 units may have completed (each completion emits one event,
	// but delivery to a failed sink stops after the first error).
	if n := atomic.LoadInt32(&sink.events); n != 1 {
		t.Fatalf("failing sink received %d events, want exactly 1", n)
	}
}

func TestMs(t *testing.T) {
	if got := Ms(0.0123); got != "12.300 ms" {
		t.Fatalf("Ms = %q", got)
	}
}
