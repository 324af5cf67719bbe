// Package par is the bounded-worker-pool primitive shared by the
// replication runner, the sweep orchestrator and the capacity planner's
// screen: fan a fixed index space out over up to P goroutines with
// results written by index, so outputs (and the reported error) are
// deterministic regardless of completion order.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Package-level pool accounting: units dispatched, unit errors, and the
// summed wall time spent inside fn across all workers (busy time). The
// counters are process-wide — the pool is a shared primitive — and feed
// the server's /metrics endpoint. Two atomic adds and two clock reads
// per unit: noise beside a replication or sweep point, and tens of
// nanoseconds beside a screened candidate's microseconds.
var (
	poolUnits  atomic.Int64
	poolErrors atomic.Int64
	poolBusyNs atomic.Int64
)

// PoolStats is a snapshot of the process-wide pool counters.
type PoolStats struct {
	// Units is the number of fn invocations completed.
	Units int64
	// Errors is how many of them returned an error.
	Errors int64
	// Busy is the summed wall time spent inside fn across all workers;
	// with uptime and a worker count it yields pool utilisation.
	Busy time.Duration
}

// Stats returns the current process-wide pool counters.
func Stats() PoolStats {
	return PoolStats{
		Units:  poolUnits.Load(),
		Errors: poolErrors.Load(),
		Busy:   time.Duration(poolBusyNs.Load()),
	}
}

// PanicError is a panic recovered from job code: the panic's value and
// the stack of the goroutine that raised it.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n\n%s", e.Value, e.Stack)
}

// Recover turns a panic in the calling function into a *PanicError
// stored in *err. Deferred as `defer par.Recover(&err)` at the top of a
// goroutine that runs job code, it keeps one failing job from ending the
// process.
func Recover(err *error) {
	if v := recover(); v != nil {
		*err = &PanicError{Value: v, Stack: debug.Stack()}
	}
}

// runUnit executes one unit with accounting. A panic in fn becomes the
// unit's error, so it reaches the caller under the lowest-index rule
// whichever worker goroutine it happened on.
func runUnit(fn func(i int) error, i int) (err error) {
	t0 := time.Now()
	func() {
		defer Recover(&err)
		err = fn(i)
	}()
	poolBusyNs.Add(int64(time.Since(t0)))
	poolUnits.Add(1)
	if err != nil {
		poolErrors.Add(1)
	}
	return err
}

// ForEachCtx runs fn(i) for every i in [0, n) on up to parallelism
// concurrent workers. parallelism <= 0 means runtime.NumCPU(). The
// calling goroutine is one of the workers, so with parallelism 1 the
// calls run sequentially on it.
//
// Workers claim the next index from a shared counter, so claims are
// monotone in index order and a unit costs one atomic add to hand out —
// no dispatcher goroutine, no channel operation per unit.
//
// The pool aborts promptly: a worker checks for a failure (or the
// context's cancellation) before each claim, so a failing or cancelled
// batch does not run to the end before reporting. A claimed unit always
// runs to completion — cancellation lands between units, never inside
// one — and the pool is fully drained before ForEachCtx returns, so no
// worker goroutines outlive the call.
//
// The returned error is deterministic for a deterministic fn: every
// index below a claimed one was claimed before it and runs, so the
// lowest-index failure always runs and is the error reported. When no
// unit failed, a cancelled context reports ctx.Err().
func ForEachCtx(ctx context.Context, n, parallelism int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	if parallelism > n {
		parallelism = n
	}
	var (
		next   atomic.Int64
		stop   atomic.Bool
		mu     sync.Mutex
		lowest = n
		lowErr error
		wg     sync.WaitGroup
		done   = ctx.Done()
	)
	work := func() {
		for !stop.Load() {
			select {
			case <-done:
				return
			default:
			}
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := runUnit(fn, i); err != nil {
				stop.Store(true)
				mu.Lock()
				if i < lowest {
					lowest, lowErr = i, err
				}
				mu.Unlock()
			}
		}
	}
	wg.Add(parallelism - 1)
	for w := 1; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if lowErr != nil {
		return lowErr
	}
	return ctx.Err()
}

// Workers splits a worker budget across inner concurrent consumers: it
// returns how many pool workers each of inner pools running at once may
// use (the server divides its budget this way among running jobs).
// parallelism <= 0 means runtime.NumCPU(), inner < 1 is treated as 1,
// and the result is never below 1 — so the total goroutine budget stays
// close to parallelism without starving any pool.
func Workers(parallelism, inner int) int {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	if inner < 1 {
		inner = 1
	}
	if w := parallelism / inner; w > 1 {
		return w
	}
	return 1
}
