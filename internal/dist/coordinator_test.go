package dist

import (
	"context"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hmscs/internal/core"
	"hmscs/internal/run"
	"hmscs/internal/sim"
	"hmscs/internal/telemetry"
)

// distSweepSpec is the workhorse spec: a fixed sweep with enough units
// (4 points × 2 reps) for interleaving to matter.
func distSweepSpec() *run.Experiment {
	e := run.NewExperiment(run.KindSweep)
	e.System.Clusters = 2
	e.System.Total = 8
	e.Sweep.Var = "clusters"
	e.Sweep.Ints = "1,2,4,8"
	e.Run.Messages = 300
	e.Run.Reps = 2
	e.Normalize()
	return e
}

// longSweepSpec is distSweepSpec with units long enough, and enough of
// them (4 points × 16 reps of 30,000 messages, a few ms each), for a
// worker's run to amortise its grant at the bootstrap price. Units of
// 10,000 messages averaged under 2 ms on a 2-vCPU host, too short for a
// fresh worker to be offered a run unless the host was loaded.
func longSweepSpec() *run.Experiment {
	e := distSweepSpec()
	e.Run.Messages = 30000
	e.Run.Reps = 16
	return e
}

// localBaseline runs the spec locally and returns (report, ts-normalized
// events).
func localBaseline(t *testing.T, e *run.Experiment, parallelism int) (string, string) {
	t.Helper()
	var report, events strings.Builder
	if _, err := run.Run(context.Background(), e, run.Options{
		Parallelism: parallelism,
		Sinks:       []run.Sink{run.NewMarkdownSink(&report), run.NewJSONLSink(&events)},
	}); err != nil {
		t.Fatalf("local run: %v", err)
	}
	return report.String(), normalizeTS(events.String())
}

var tsRe = regexp.MustCompile(`"ts":"[^"]*"`)

func normalizeTS(s string) string { return tsRe.ReplaceAllString(s, `"ts":"X"`) }

// adversarialWorker drains the coordinator like a hostile fleet member:
// it leases runs, completes each run one unit at a time in reverse
// order, delivers every completion twice, and — once — sits on a whole
// run past the lease TTL so the units expire and reassign before the
// stale completions land.
type adversarialWorker struct {
	t     *testing.T
	coord *Coordinator
	token string
	prog  *run.Program

	stales atomic.Int64
}

func (a *adversarialWorker) run(ctx context.Context) {
	for ctx.Err() == nil {
		leases, ok := a.coord.Lease(ctx, a.token, maxLeaseUnits, 50*time.Millisecond)
		if !ok {
			a.t.Error("coordinator forgot a registered worker")
			return
		}
		for _, l := range leases {
			for i := len(l.Units) - 1; i >= 0; i-- {
				req := completeRun(a.prog, a.token, l, i)
				a.coord.Complete(req)
				if a.coord.Complete(req) == statusStale {
					a.stales.Add(1)
				}
			}
		}
	}
}

// completeRun executes the named units of a leased run (all of them
// when none are named) the way a remote worker would and builds their
// completion, quoting token.
func completeRun(prog *run.Program, token string, l Lease, units ...int) completeRequest {
	if len(units) == 0 {
		for i := range l.Units {
			units = append(units, i)
		}
	}
	req := completeRequest{Token: token, Lease: l.ID}
	for _, i := range units {
		u := l.Units[i]
		out := unitOutcome{Unit: i}
		stage, err := prog.Stage(u.Stage)
		var cfg *core.Config
		var opts sim.Options
		if err == nil {
			cfg, opts, err = stage.Unit(u.Point, u.Rep)
		}
		if err != nil {
			out.Error = err.Error()
			req.Results = append(req.Results, out)
			continue
		}
		col := telemetry.NewCollector()
		opts.Stats = col
		start := time.Now()
		res, err := stage.Engine.Run(context.Background(), u.Point, u.Rep, cfg, opts)
		req.BusyNS += time.Since(start).Nanoseconds()
		if err != nil {
			out.Error = err.Error()
		} else {
			st, _ := col.Snapshot()
			out.Result, out.Stats = res, &st
		}
		req.Results = append(req.Results, out)
	}
	return req
}

// enqueue offers off to the next poll, as if its lease had expired.
func (c *Coordinator) enqueue(off *offer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requeueLocked(off)
	c.signalLocked()
}

// newTestOffer is a unit of spec h whose results have no centre rows.
func newTestOffer(h string) *offer {
	return &offer{hash: h, unit: WireUnit{Stage: run.StageSim}, done: make(chan struct{}), resolved: make(chan outcome, 1)}
}

// TestAdversarialCompletionOrder pins merge determinism against the
// protocol's worst legal behaviours at once: reversed completion order,
// duplicate deliveries, and one worker dying with a leased unit — its
// lease expires, the unit reassigns, and its eventual late completion
// must land stale. The distributed outcome must still be byte-identical
// to the sequential local run.
func TestAdversarialCompletionOrder(t *testing.T) {
	e := longSweepSpec()
	wantReport, wantEvents := localBaseline(t, e, 1)

	coord := NewCoordinator(300 * time.Millisecond)
	defer coord.Close()
	// One slot each keeps the fleet's lanes few, so each run's share is
	// long enough to amortise a grant at the bootstrap price.
	reg := coord.Register("adversary", 1)
	doomed := coord.Register("doomed", 1)

	prog, err := run.NewProgram(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The doomed worker leases a run, misses every heartbeat past the TTL
	// (a crash-and-slow-restart), then delivers its results late — which
	// must come back stale because the units were reassigned. It polls
	// alone at first (the adversary starts only once it holds its lease),
	// so it is granted the stage's first run.
	lateStatus := make(chan string, 1)
	leasedOnce := make(chan struct{})
	go func() {
		for ctx.Err() == nil {
			leases, ok := coord.Lease(ctx, doomed.Token, maxLeaseUnits, 500*time.Millisecond)
			if !ok {
				return
			}
			if len(leases) == 0 {
				continue
			}
			close(leasedOnce)
			time.Sleep(2 * coord.ttl)
			// Only the first unit is delivered: the verdict is stale before
			// any result counts, and one unit keeps the delivery inside
			// the registry's forgetting window even under -race.
			lateStatus <- coord.Complete(completeRun(prog, doomed.Token, leases[0], 0))
			return
		}
	}()
	adv := &adversarialWorker{t: t, coord: coord, token: reg.Token, prog: prog}
	go func() {
		select {
		case <-leasedOnce:
			adv.run(ctx)
		case <-ctx.Done():
		}
	}()

	ex, err := NewExecutor(ctx, coord, "adv-spec", e, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	var report, events strings.Builder
	if _, err := run.Run(ctx, e, run.Options{
		Parallelism: 1,
		Sinks:       []run.Sink{run.NewMarkdownSink(&report), run.NewJSONLSink(&events)},
		Units:       ex.Runner,
	}); err != nil {
		t.Fatalf("distributed run: %v", err)
	}

	if report.String() != wantReport {
		t.Errorf("report differs from local run:\n--- local ---\n%s\n--- distributed ---\n%s", wantReport, report.String())
	}
	if got := normalizeTS(events.String()); got != wantEvents {
		t.Errorf("event stream differs from local run:\n--- local ---\n%s\n--- distributed ---\n%s", wantEvents, got)
	}
	// The doomed worker's late completion may still be in flight when the
	// run finishes; it must arrive and be judged stale.
	select {
	case status := <-lateStatus:
		if status != statusStale {
			t.Errorf("late completion of a revoked lease answered %q, want %q", status, statusStale)
		}
	case <-time.After(10 * time.Second):
		t.Error("doomed worker never leased a unit; nothing exercised lease revocation")
	}
	st := coord.Stats()
	if st.Completed == 0 {
		t.Error("adversarial worker completed no units (nothing was distributed)")
	}
	if st.Duplicate == 0 {
		t.Error("duplicate completions were delivered but never counted stale")
	}
	if adv.stales.Load() == 0 {
		t.Error("no duplicate delivery came back stale")
	}
	if st.Reassigned == 0 {
		t.Error("the doomed worker's lease expired yet nothing was reassigned")
	}
}

// TestCoordinatorRevertsWhenFleetDies pins the no-hang guarantee: with
// every worker dead, offered units revert to the executor and the job
// completes locally, byte-identically.
func TestCoordinatorRevertsWhenFleetDies(t *testing.T) {
	e := longSweepSpec()
	wantReport, _ := localBaseline(t, e, 1)

	coord := NewCoordinator(250 * time.Millisecond)
	defer coord.Close()
	reg := coord.Register("doomed", 2)
	// The doomed worker leases a run and is never heard from again.
	leased := make(chan int, 1)
	go func() {
		leases, _ := coord.Lease(context.Background(), reg.Token, maxLeaseUnits, 5*time.Second)
		leased <- len(leases)
	}()

	ctx := context.Background()
	ex, err := NewExecutor(ctx, coord, "revert-spec", e, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	var report strings.Builder
	if _, err := run.Run(ctx, e, run.Options{
		Parallelism: 1,
		Sinks:       []run.Sink{run.NewMarkdownSink(&report)},
		Units:       ex.Runner,
	}); err != nil {
		t.Fatalf("distributed run with dead fleet: %v", err)
	}
	if report.String() != wantReport {
		t.Error("report differs from local run after fleet death")
	}
	st := coord.Stats()
	if st.Local == 0 {
		t.Error("no units ran locally despite a dead fleet")
	}
	if n := <-leased; n == 0 || st.Reassigned == 0 {
		t.Errorf("the doomed worker leased a run of %d units and %d were reassigned; nothing had to revert", n, st.Reassigned)
	}
}

// TestSpecRegistryRefcounts pins the spec store lifecycle: live
// executors pin their spec, released specs stay cached for
// resubmission, and the idle cache evicts oldest-first.
func TestSpecRegistryRefcounts(t *testing.T) {
	coord := NewCoordinator(time.Second)
	defer coord.Close()
	coord.registerSpec("h1", []byte("one"))
	coord.registerSpec("h1", []byte("one"))
	coord.releaseSpec("h1")
	if _, ok := coord.Spec("h1"); !ok {
		t.Fatal("spec dropped while still referenced")
	}
	coord.releaseSpec("h1")
	if _, ok := coord.Spec("h1"); !ok {
		t.Fatal("idle spec evicted immediately; want cached for resubmission")
	}
	for i := 0; i < specCacheSize; i++ {
		h := "fill" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		coord.registerSpec(h, []byte("x"))
		coord.releaseSpec(h)
	}
	if _, ok := coord.Spec("h1"); ok {
		t.Fatal("oldest idle spec survived past the cache bound")
	}
}

// TestCompleteFromNonHolderIsStale: a registered worker that learns
// another's lease id must not resolve it. A completion from a worker that
// does not hold the lease must land stale, credit nobody and leave the
// lease to its holder, whose real completion then resolves the unit.
func TestCompleteFromNonHolderIsStale(t *testing.T) {
	coord := NewCoordinator(time.Minute)
	defer coord.Close()
	regA, regB := coord.Register("a", 1), coord.Register("b", 1)
	a, b := regA.Token, regB.Token
	off := newTestOffer("h")
	coord.enqueue(off)
	leases, ok := coord.Lease(context.Background(), a, 1, 10*time.Second)
	if !ok || len(leases) != 1 {
		t.Fatalf("worker a leased %v (ok %v), want one lease", leases, ok)
	}
	id := leases[0].ID
	if got := coord.Complete(completeRequest{Token: b, Lease: id, Results: []unitOutcome{{Error: "forged"}}}); got != statusStale {
		t.Fatalf("non-holder completion answered %q, want %q", got, statusStale)
	}
	if st := coord.Stats(); st.Duplicate != 1 || st.Failed != 0 || st.Completed != 0 {
		t.Fatalf("after the forged completion: %+v, want one duplicate and nothing resolved", st)
	}
	select {
	case out := <-off.resolved:
		t.Fatalf("forged completion resolved the unit: %+v", out)
	default:
	}
	res := &sim.Result{Throughput: 42}
	if got := coord.Complete(completeRequest{Token: a, Lease: id, Results: []unitOutcome{{Result: res}}}); got != statusOK {
		t.Fatalf("holder's completion answered %q, want %q", got, statusOK)
	}
	if out := <-off.resolved; out.err != nil || out.res.Throughput != 42 {
		t.Fatalf("holder's completion resolved %+v, want its result", out)
	}
	for _, w := range coord.Workers() {
		if want := map[string]int64{regA.Worker: 1, regB.Worker: 0}[w.ID]; w.UnitsDone != want {
			t.Errorf("worker %s credited %d units, want %d", w.Name, w.UnitsDone, want)
		}
	}
}
