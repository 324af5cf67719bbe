package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, p := range []int{0, 1, 2, 7, 64} {
		const n = 100
		var hits [n]int32
		err := ForEachCtx(context.Background(), n, p, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("parallelism %d: index %d ran %d times", p, i, h)
			}
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	for _, p := range []int{1, 4} {
		err := ForEachCtx(context.Background(), 10, p, func(i int) error {
			if i == 7 || i == 3 {
				return fmt.Errorf("unit %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "unit 3 failed" {
			t.Fatalf("parallelism %d: err = %v, want lowest-index failure", p, err)
		}
	}
}

// A failing unit aborts the pool promptly: units far past the failure
// point are never dispatched, instead of the whole batch running to the
// end with the error held back.
func TestForEachAbortsPromptlyOnError(t *testing.T) {
	for _, p := range []int{1, 4} {
		var ran int32
		err := ForEachCtx(context.Background(), 10_000, p, func(i int) error {
			atomic.AddInt32(&ran, 1)
			if i == 0 {
				return errors.New("boom")
			}
			return nil
		})
		if err == nil {
			t.Fatalf("parallelism %d: error swallowed", p)
		}
		// Unit 0 fails; only units already dispatched alongside it may
		// still run. Allow generous slack for scheduling, but the batch
		// must not have run to completion.
		if n := atomic.LoadInt32(&ran); n > 1000 {
			t.Fatalf("parallelism %d: %d of 10000 units ran after the first failure", p, n)
		}
	}
}

func TestForEachCtxCancelAbortsAndDrains(t *testing.T) {
	for _, p := range []int{1, 8} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var ran int32
		err := ForEachCtx(ctx, 10_000, p, func(i int) error {
			if atomic.AddInt32(&ran, 1) == 1 {
				cancel() // cancel after the first unit completes
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", p, err)
		}
		if n := atomic.LoadInt32(&ran); n > 1000 {
			t.Fatalf("parallelism %d: %d units ran after cancellation", p, n)
		}
		// The pool must be fully drained on return: no worker goroutines
		// may outlive the call. Allow the runtime a moment to reap.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("parallelism %d: %d goroutines before, %d after — pool leaked", p, before, after)
		}
	}
}

func TestForEachCtxPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEachCtx(ctx, 100, 4, func(int) error { return errors.New("must not run") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestForEachZeroUnits(t *testing.T) {
	if err := ForEachCtx(context.Background(), 0, 4, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}
