package par

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
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

// TestForEachLowestIndexErrorProperty checks the pool contract over
// seeded random failure sets: the reported error is the lowest failing
// index's, every index below it ran exactly once, no index ran twice, and
// the process-wide Units and Errors counters rose by exactly what ran.
// Units spin for random lengths, so a higher failing index often finishes
// before a lower one.
func TestForEachLowestIndexErrorProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20051))
	var sink atomic.Int64
	for trial := 0; trial < 300; trial++ {
		p := []int{2, 4, 16}[trial%3]
		n := 1 + rng.Intn(200)
		fails := make([]bool, n)
		spin := make([]int, n)
		for i := range spin {
			spin[i] = rng.Intn(5000)
		}
		lowest := -1
		for k := rng.Intn(4); k > 0; k-- {
			fails[rng.Intn(n)] = true
		}
		for i, f := range fails {
			if f {
				lowest = i
				break
			}
		}
		hits := make([]int32, n)
		before := Stats()
		err := ForEachCtx(context.Background(), n, p, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			x := 0
			for k := 0; k < spin[i]; k++ {
				x += k ^ i
			}
			sink.Add(int64(x))
			if fails[i] {
				return fmt.Errorf("unit %d failed", i)
			}
			return nil
		})
		after := Stats()
		ran, failed := int64(0), int64(0)
		for i, h := range hits {
			if h > 1 {
				t.Fatalf("trial %d (p=%d, n=%d): index %d ran %d times", trial, p, n, i, h)
			}
			ran += int64(h)
			if h == 1 && fails[i] {
				failed++
			}
		}
		if lowest < 0 {
			if err != nil || ran != int64(n) {
				t.Fatalf("trial %d (p=%d, n=%d): err %v with %d of %d units run, want nil and all", trial, p, n, err, ran, n)
			}
		} else {
			if want := fmt.Sprintf("unit %d failed", lowest); err == nil || err.Error() != want {
				t.Fatalf("trial %d (p=%d, n=%d): err = %v, want %q", trial, p, n, err, want)
			}
			for i := 0; i <= lowest; i++ {
				if hits[i] != 1 {
					t.Fatalf("trial %d (p=%d, n=%d): index %d below the failure at %d ran %d times", trial, p, n, i, lowest, hits[i])
				}
			}
		}
		if d := after.Units - before.Units; d != ran {
			t.Fatalf("trial %d: Units rose by %d, %d units ran", trial, d, ran)
		}
		if d := after.Errors - before.Errors; d != failed {
			t.Fatalf("trial %d: Errors rose by %d, %d units failed", trial, d, failed)
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

// A panicking unit fails the pool like an erroring one: the panic comes
// back as a *PanicError carrying its value and stack, under the
// lowest-index rule (index 9's plain error is outranked), and no worker
// goroutine outlives the call.
func TestForEachRecoversPanic(t *testing.T) {
	for _, p := range []int{1, 4} {
		before := runtime.NumGoroutine()
		err := ForEachCtx(context.Background(), 64, p, func(i int) error {
			switch i {
			case 5:
				panic(fmt.Sprintf("unit %d exploded", i))
			case 9:
				return errors.New("unit 9 failed")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("parallelism %d: err = %v, want a *PanicError", p, err)
		}
		if pe.Value != "unit 5 exploded" || !strings.Contains(err.Error(), "unit 5 exploded") {
			t.Fatalf("parallelism %d: panic value %v, error %q", p, pe.Value, err)
		}
		if !strings.Contains(string(pe.Stack), "TestForEachRecoversPanic") {
			t.Fatalf("parallelism %d: stack does not reach the panicking unit:\n%s", p, pe.Stack)
		}
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
