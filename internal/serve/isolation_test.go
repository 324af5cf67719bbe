package serve

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hmscs/internal/par"
	"hmscs/internal/run"
)

// TestPanickingJobFailsAlone injects a panic into a job twice, once on a
// pool worker and once on the job's own goroutine. Each time the job
// ends failed with the panic and its stack as the reason, nothing is
// cached, and the same server then runs the same spec to completion.
func TestPanickingJobFailsAlone(t *testing.T) {
	var fault atomic.Value
	fault.Store("")
	orig := runExperiment
	runExperiment = func(ctx context.Context, e *run.Experiment, opts run.Options) (*run.Outcome, error) {
		switch fault.Load() {
		case "pool":
			return nil, par.ForEachCtx(ctx, 4, 2, func(i int) error {
				if i == 2 {
					panic("pool boom")
				}
				return nil
			})
		case "job":
			var m map[string]int
			m["job boom"]++ // assignment to a nil map panics
		}
		return orig(ctx, e, opts)
	}
	t.Cleanup(func() { runExperiment = orig })

	srv := New(Config{Parallelism: 2, MaxJobs: 1})
	defer srv.Close()
	spec := run.NewExperiment(run.KindSimulate)
	spec.System.Clusters = 4
	spec.System.Total = 16
	spec.Run.Messages = 500
	spec.Run.Warmup = 100

	for _, c := range []struct{ fault, want string }{
		{"pool", "panic: pool boom"},
		{"job", "panic: assignment to entry in nil map"},
	} {
		fault.Store(c.fault)
		info := runToEnd(t, srv, spec)
		if info.Status != StatusFailed || !strings.HasPrefix(info.Error, c.want) ||
			!strings.Contains(info.Error, "goroutine ") {
			t.Fatalf("%s panic: job ended %s with reason %q, want failed with %q and a stack",
				c.fault, info.Status, info.Error, c.want)
		}
	}
	fault.Store("")
	info := runToEnd(t, srv, spec)
	if info.Status != StatusDone || info.Cached {
		t.Fatalf("after the panics the spec ended %s (cached %v, error %q), want a fresh run done",
			info.Status, info.Cached, info.Error)
	}
	if n := srv.Runs(); n != 3 {
		t.Fatalf("server ran %d jobs, want 3: a failed job must not be cached", n)
	}
}

// runToEnd submits spec and waits for the job's terminal state.
func runToEnd(t *testing.T, srv *Server, spec *run.Experiment) JobInfo {
	t.Helper()
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !job.Status().Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return job.Info()
}
