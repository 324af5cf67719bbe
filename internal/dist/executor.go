package dist

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hmscs/internal/core"
	"hmscs/internal/output"
	"hmscs/internal/par"
	"hmscs/internal/run"
	"hmscs/internal/sim"
)

// Executor is the job side of the fan-out: as run.Options.Units it
// receives each stage the run executes. The job's pool runs a fixed
// stage's units from the head, in index order, and attached workers may
// take runs of units from its tail when their measured cost is
// amortised (stageRun). Results come back positionally — unit k's result
// is unit k's result no matter who ran it or when — so the merge the
// drivers perform is the same deterministic fold a local run performs.
type Executor struct {
	coord *Coordinator
	hash  string
	slots int

	ctx    context.Context
	cancel context.CancelFunc
}

// NewExecutor prepares a job for distribution: the spec's bytes are
// registered with the coordinator for worker fetches, and slots is the
// job's pool parallelism — the local lanes a stage's units spread over
// besides the fleet's. Close must be called when the job ends.
func NewExecutor(ctx context.Context, coord *Coordinator, hash string, spec *run.Experiment, slots int) (*Executor, error) {
	data, err := spec.Marshal()
	if err != nil {
		return nil, err
	}
	coord.registerSpec(hash, data)
	e := &Executor{coord: coord, hash: hash, slots: max(slots, 1)}
	e.ctx, e.cancel = context.WithCancel(ctx)
	return e, nil
}

// Close detaches the job: its stages stop offering runs, outstanding
// offers are dropped at grant time, in-flight remote units resolve into
// nowhere, and the spec reference is released.
func (e *Executor) Close() {
	e.cancel()
	e.coord.dropSources(e)
	e.coord.releaseSpec(e.hash)
}

// Runner is the run.Options.Units hook: it returns the executor for the
// stage run.Run is about to execute, or nil (run locally) for a stage
// without units and for a precision stage. A precision stage's rounds
// are decided one after another by the stopping rule, and a round runs
// on the job's own pool: a unit handed to a worker would only hold the
// pool slot that offered it, adding overhead and never concurrency.
func (e *Executor) Runner(st *run.UnitStage) sim.UnitFunc {
	n := len(st.Units) * st.Reps
	if st.Precision || n == 0 {
		return nil
	}
	s := &stageRun{e: e, st: st, tail: n}
	e.coord.addSource(s)
	return s.RunUnit
}

// stageRun places one fixed stage's units. The pool's slots run units
// from the head in index order; a polling worker is offered a contiguous
// run from the tail (take). Units [tail, n) are placed remotely and
// head is one past the highest unit a local slot has claimed, so
// [head, tail) is what may still be offered. localNS and localN measure
// the stage's engine time per unit from its completed local units.
type stageRun struct {
	e  *Executor
	st *run.UnitStage

	mu      sync.Mutex
	head    int
	tail    int
	offs    []*offer // by unit index, from tail on
	localNS int64
	localN  int64
}

// take cuts the next run for a worker whose grant costs costNS beyond
// engine time, with lanes the fleet's live slots. The run is k units
// from the tail, k being the worker's guided self-scheduling share of
// the units still unplaced — remaining / (local slots + fleet slots),
// at most max — so the stage's end does not wait on a long remote run.
// It is offered only when costNS is at most grainFraction of the run's
// engine time at the stage's measured time per unit; as the cost test
// only gets harder for smaller k, no smaller run would pass it either,
// and until a local unit completes nothing is offered. spent reports a
// stage that will never offer again.
func (s *stageRun) take(costNS int64, lanes, max int) (offs []*offer, spent bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.e.ctx.Err() != nil || s.tail <= s.head {
		return nil, true
	}
	if s.localN == 0 {
		return nil, false
	}
	k := min((s.tail-s.head)/(s.e.slots+lanes), max)
	if k < 1 || float64(costNS) > grainFraction*float64(k)*float64(s.localNS)/float64(s.localN) {
		return nil, false
	}
	first := s.tail - k
	offs = make([]*offer, k)
	for i := range offs {
		off, err := s.offer(first + i)
		if err != nil {
			return nil, false // the unit fails again, and is reported, on its local slot
		}
		offs[i] = off
	}
	if s.offs == nil {
		s.offs = make([]*offer, len(s.st.Units)*s.st.Reps)
	}
	copy(s.offs[first:], offs)
	s.tail = first
	return offs, false
}

// offer wraps unit k for the coordinator, with a derivation panic
// returned as an error.
func (s *stageRun) offer(k int) (_ *offer, err error) {
	defer par.Recover(&err)
	point, rep := k/s.st.Reps, k%s.st.Reps
	_, o, err := s.st.Unit(point, rep)
	if err != nil {
		return nil, err
	}
	slices := 0
	if cs := o.Scenario; cs != nil {
		slices = output.SliceCount(cs.Horizon, cs.Slice)
	}
	return &offer{
		hash:     s.e.hash,
		unit:     WireUnit{Stage: s.st.Name, Point: point, Rep: rep, Seed: o.Seed},
		centers:  s.st.Centers(point),
		slices:   slices,
		done:     s.e.ctx.Done(),
		resolved: make(chan outcome, 1),
	}, nil
}

// RunUnit is the stage's sim.UnitFunc. A unit no worker holds runs here,
// on the pool slot that asked for it. A unit placed remotely is waited
// for — a live worker's unit is never run twice — unless it sits in the
// requeue, held by nobody, or reverts; then it too runs here.
func (s *stageRun) RunUnit(ctx context.Context, point, rep int, cfg *core.Config, opts sim.Options) (*sim.Result, error) {
	if point < 0 || point >= len(s.st.Units) || rep < 0 || rep >= s.st.Reps {
		return nil, fmt.Errorf("dist: unit (%d,%d) outside stage %q (%d points × %d reps)",
			point, rep, s.st.Name, len(s.st.Units), s.st.Reps)
	}
	k := point*s.st.Reps + rep
	var off *offer
	s.mu.Lock()
	if k >= s.tail {
		off = s.offs[k]
	} else if k >= s.head {
		s.head = k + 1
	}
	s.mu.Unlock()
	if off != nil && !s.e.coord.reclaim(off) {
		select {
		case out := <-off.resolved:
			if !out.revert {
				if out.err == nil {
					opts.Stats.Add(out.stats)
				}
				return out.res, out.err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s.e.coord.unitsLocal.Inc()
	start := time.Now()
	res, err := runEngine(ctx, s.st, point, rep, cfg, opts)
	if err == nil {
		s.measure(time.Since(start))
	}
	return res, err
}

// measure adds one local unit's engine time. Each time the count of
// measured units doubles, polling workers are woken to size their runs
// against the sharper estimate — the first time, against any estimate
// at all.
func (s *stageRun) measure(d time.Duration) {
	s.mu.Lock()
	s.localNS += d.Nanoseconds()
	s.localN++
	n := s.localN
	s.mu.Unlock()
	if n&(n-1) == 0 {
		s.e.coord.signal()
	}
}

// runEngine runs one unit through its stage's engine with a panic
// returned as a *par.PanicError, so a panicking unit fails the job and
// leaves the server serving.
func runEngine(ctx context.Context, st *run.UnitStage, point, rep int, cfg *core.Config, o sim.Options) (_ *sim.Result, err error) {
	defer par.Recover(&err)
	return st.Engine.Run(ctx, point, rep, cfg, o)
}
