package dist

import (
	"context"
	"fmt"
	"sync"

	"hmscs/internal/core"
	"hmscs/internal/par"
	"hmscs/internal/run"
	"hmscs/internal/sim"
	"hmscs/internal/telemetry"
)

// Executor is the job side of the fan-out: as run.Options.Units it
// receives each stage the run executes and spreads the stage's units
// between the attached workers and a bounded local budget. Results come
// back positionally — unit k's result is unit k's result no matter who
// ran it or when — so the merge the drivers perform is the same
// deterministic fold a local run performs.
type Executor struct {
	coord *Coordinator
	hash  string
	slots int

	localSem chan struct{}
	ctx      context.Context
	cancel   context.CancelFunc
}

// NewExecutor prepares a job for distribution: the spec's bytes are
// registered with the coordinator for worker fetches, and local
// execution is capped at slots concurrent engines (the job's pool
// parallelism, so a distributed job consumes the same local budget a
// plain one would). Close must be called when the job ends.
func NewExecutor(ctx context.Context, coord *Coordinator, hash string, spec *run.Experiment, slots int) (*Executor, error) {
	data, err := spec.Marshal()
	if err != nil {
		return nil, err
	}
	if slots < 1 {
		slots = 1
	}
	coord.registerSpec(hash, data)
	e := &Executor{
		coord:    coord,
		hash:     hash,
		slots:    slots,
		localSem: make(chan struct{}, slots),
	}
	e.ctx, e.cancel = context.WithCancel(ctx)
	return e, nil
}

// Close detaches the job: outstanding offers are dropped at grant time,
// in-flight remote units resolve into nowhere, and the spec reference
// is released.
func (e *Executor) Close() {
	e.cancel()
	e.coord.releaseSpec(e.hash)
}

// Runner is the run.Options.Units hook: it returns the executor for the
// stage run.Run is about to execute, or nil (run locally) for a stage
// without units.
func (e *Executor) Runner(st *run.UnitStage) sim.UnitFunc {
	if st.Precision {
		// Adaptive stages are demand-driven: the replication schedule is
		// decided round by round, so there is nothing to dispatch ahead.
		return (&demandRunner{e: e, st: st}).RunUnit
	}
	if len(st.Units)*st.Reps == 0 {
		return nil
	}
	pr := &prefetchRunner{e: e, st: st}
	pr.results = make([]chan unitRes, len(st.Units)*st.Reps)
	for i := range pr.results {
		pr.results[i] = make(chan unitRes, 1)
	}
	return pr.RunUnit
}

// newOffer wraps one unit for the coordinator.
func (e *Executor) newOffer(stage string, point, rep int, seed uint64) *offer {
	return &offer{
		hash:     e.hash,
		unit:     WireUnit{Stage: stage, Point: point, Rep: rep, Seed: seed},
		done:     e.ctx.Done(),
		resolved: make(chan outcome, 1),
	}
}

// unitRes is one unit's delivered result (stats are folded by the
// producer, so consumption is a plain positional hand-off).
type unitRes struct {
	res *sim.Result
	err error
}

// demandRunner distributes precision-mode units one call at a time: a
// unit goes remote exactly when a worker is long-polling for work at
// the moment the pool offers it, and runs locally otherwise. No
// prefetch is possible — the adaptive stopping rule decides the next
// round only after consuming this one.
type demandRunner struct {
	e  *Executor
	st *run.UnitStage
}

func (d *demandRunner) RunUnit(ctx context.Context, point, rep int, cfg *core.Config, opts sim.Options) (*sim.Result, error) {
	e := d.e
	col := opts.Stats
	o := opts
	o.Stats = nil
	off := e.newOffer(d.st.Name, point, rep, o.Seed)
	select {
	case e.coord.offers <- off:
		select {
		case out := <-off.resolved:
			if out.revert {
				break // the fleet died under us; fall through to local
			}
			if out.err != nil {
				return nil, out.err
			}
			col.Add(out.stats)
			return out.res, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	default:
		// No worker is waiting right now; the calling goroutine is our
		// execution slot.
	}
	e.coord.unitsLocal.Inc()
	o.Stats = col
	return runEngine(ctx, d.st, point, rep, cfg, o)
}

// prefetchRunner distributes a fixed stage: a dispatcher races ahead of
// the consuming pool, offering units in index order to whichever side
// is free — a polling worker or a local engine slot — under an in-flight
// window of (local slots + remote capacity). Tokens release on
// consumption, which bounds buffered results; the window is at least
// the consuming pool's size, so the pool's next wanted unit is always
// dispatched and the scheme cannot deadlock.
type prefetchRunner struct {
	e       *Executor
	st      *run.UnitStage
	once    sync.Once
	results []chan unitRes
	tokens  chan struct{}
}

func (p *prefetchRunner) RunUnit(ctx context.Context, point, rep int, cfg *core.Config, opts sim.Options) (*sim.Result, error) {
	if point < 0 || point >= len(p.st.Units) || rep < 0 || rep >= p.st.Reps {
		return nil, fmt.Errorf("dist: unit (%d,%d) outside stage %q (%d points × %d reps)",
			point, rep, p.st.Name, len(p.st.Units), p.st.Reps)
	}
	p.once.Do(func() { p.start(opts.Stats) })
	k := point*p.st.Reps + rep
	select {
	case out := <-p.results[k]:
		<-p.tokens // consumption frees one in-flight slot
		return out.res, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// start launches the dispatcher. The stage's units all share the
// call-site collector, so capturing it from the first RunUnit is
// equivalent to threading it through every call.
func (p *prefetchRunner) start(col *telemetry.Collector) {
	e := p.e
	window := e.slots + e.coord.Capacity()
	if window < e.slots {
		window = e.slots
	}
	p.tokens = make(chan struct{}, window)
	go func() {
		for k := range p.results {
			point, rep := k/p.st.Reps, k%p.st.Reps
			cfg, o, err := stageUnit(p.st, point, rep)
			if err != nil {
				p.results[k] <- unitRes{err: err}
				continue
			}
			select {
			case p.tokens <- struct{}{}:
			case <-e.ctx.Done():
				return
			}
			off := e.newOffer(p.st.Name, point, rep, o.Seed)
			select {
			case e.coord.offers <- off:
				go p.awaitRemote(k, off, cfg, o, col)
			case e.localSem <- struct{}{}:
				go p.runLocal(k, cfg, o, col)
			case <-e.ctx.Done():
				return
			}
		}
	}()
}

// awaitRemote waits out one remotely-leased unit; a revert (the fleet
// died) falls back to a local engine slot.
func (p *prefetchRunner) awaitRemote(k int, off *offer, cfg *core.Config, o sim.Options, col *telemetry.Collector) {
	e := p.e
	select {
	case out := <-off.resolved:
		if !out.revert {
			if out.err == nil {
				col.Add(out.stats)
			}
			p.results[k] <- unitRes{res: out.res, err: out.err}
			return
		}
	case <-e.ctx.Done():
		return
	}
	select {
	case e.localSem <- struct{}{}:
		p.runLocal(k, cfg, o, col)
	case <-e.ctx.Done():
	}
}

// runLocal executes one unit on a local engine slot (held on entry).
func (p *prefetchRunner) runLocal(k int, cfg *core.Config, o sim.Options, col *telemetry.Collector) {
	p.e.coord.unitsLocal.Inc()
	o.Stats = col
	res, err := runEngine(p.e.ctx, p.st, k/p.st.Reps, k%p.st.Reps, cfg, o)
	<-p.e.localSem
	p.results[k] <- unitRes{res: res, err: err}
}

// runEngine runs one unit through its stage's engine with a panic
// returned as a *par.PanicError. Prefetched local units run on the
// executor's own goroutines, which no pool recovers, and a panic there
// would end the server.
func runEngine(ctx context.Context, st *run.UnitStage, point, rep int, cfg *core.Config, o sim.Options) (_ *sim.Result, err error) {
	defer par.Recover(&err)
	return st.Engine.Run(ctx, point, rep, cfg, o)
}

// stageUnit is UnitStage.Unit with a panic returned as an error, for
// the dispatcher goroutine that derives each unit.
func stageUnit(st *run.UnitStage, point, rep int) (_ *core.Config, _ sim.Options, err error) {
	defer par.Recover(&err)
	return st.Unit(point, rep)
}
