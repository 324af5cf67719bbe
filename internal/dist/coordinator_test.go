package dist

import (
	"context"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
// it leases units in batches, completes each batch in reverse order,
// delivers every completion twice, and — once — sits on a whole batch
// past the lease TTL so the units expire and reassign before the stale
// completions land.
type adversarialWorker struct {
	t     *testing.T
	coord *Coordinator
	token string
	prog  *run.Program

	stales atomic.Int64
}

func (a *adversarialWorker) run(ctx context.Context) {
	for ctx.Err() == nil {
		leases, ok := a.coord.Lease(a.token, 4, 50*time.Millisecond)
		if !ok {
			a.t.Error("coordinator forgot a registered worker")
			return
		}
		for i := len(leases) - 1; i >= 0; i-- {
			req := completeUnit(a.prog, a.token, leases[i])
			a.coord.Complete(req)
			if a.coord.Complete(req) == statusStale {
				a.stales.Add(1)
			}
		}
	}
}

// completeUnit executes one leased unit the way a remote worker would
// and builds its completion, quoting token.
func completeUnit(prog *run.Program, token string, l Lease) completeRequest {
	stage, err := prog.Stage(l.Unit.Stage)
	if err != nil {
		return completeRequest{Token: token, Lease: l.ID, Error: err.Error()}
	}
	cfg, opts, err := stage.Unit(l.Unit.Point, l.Unit.Rep)
	if err != nil {
		return completeRequest{Token: token, Lease: l.ID, Error: err.Error()}
	}
	col := telemetry.NewCollector()
	opts.Stats = col
	res, err := stage.Engine.Run(context.Background(), l.Unit.Point, l.Unit.Rep, cfg, opts)
	if err != nil {
		return completeRequest{Token: token, Lease: l.ID, Error: err.Error()}
	}
	st, _ := col.Snapshot()
	return completeRequest{Token: token, Lease: l.ID, Result: encodeResult(res), Stats: &st}
}

// TestAdversarialCompletionOrder pins merge determinism against the
// protocol's worst legal behaviours at once: reversed completion order,
// duplicate deliveries, and one worker dying with a leased unit — its
// lease expires, the unit reassigns, and its eventual late completion
// must land stale. The distributed outcome must still be byte-identical
// to the sequential local run.
func TestAdversarialCompletionOrder(t *testing.T) {
	e := distSweepSpec()
	wantReport, wantEvents := localBaseline(t, e, 1)

	coord := NewCoordinator(300 * time.Millisecond)
	defer coord.Close()
	reg := coord.Register("adversary", 4)
	doomed := coord.Register("doomed", 1)

	prog, err := run.NewProgram(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The doomed worker leases one unit, misses every heartbeat past the
	// TTL (a crash-and-slow-restart), then delivers its result late —
	// which must come back stale because the unit was reassigned. It
	// polls alone at first (the adversary starts only once it holds its
	// lease), so with the single local slot busy it is guaranteed a unit.
	lateStatus := make(chan string, 1)
	leasedOnce := make(chan struct{})
	go func() {
		for ctx.Err() == nil {
			leases, ok := coord.Lease(doomed.Token, 1, 500*time.Millisecond)
			if !ok {
				return
			}
			if len(leases) == 0 {
				continue
			}
			close(leasedOnce)
			time.Sleep(2 * coord.ttl)
			lateStatus <- coord.Complete(completeUnit(prog, doomed.Token, leases[0]))
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
	e := distSweepSpec()
	wantReport, _ := localBaseline(t, e, 1)

	coord := NewCoordinator(250 * time.Millisecond)
	defer coord.Close()
	reg := coord.Register("doomed", 2)
	// The doomed worker leases two units and is never heard from again.
	leases, ok := coord.Lease(reg.Token, 2, time.Second)
	if !ok || len(leases) == 0 {
		// Nothing offered yet — grab units once the run below offers them.
		go func() {
			coord.Lease(reg.Token, 2, 2*time.Second) //nolint:errcheck
		}()
	}

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
	if st := coord.Stats(); st.Local == 0 {
		t.Error("no units ran locally despite a dead fleet")
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
	off := &offer{hash: "h", unit: WireUnit{Stage: run.StageSim}, done: make(chan struct{}), resolved: make(chan outcome, 1)}
	go func() { coord.offers <- off }()
	leases, ok := coord.Lease(a, 1, 10*time.Second)
	if !ok || len(leases) != 1 {
		t.Fatalf("worker a leased %v (ok %v), want one lease", leases, ok)
	}
	id := leases[0].ID
	if got := coord.Complete(completeRequest{Token: b, Lease: id, Error: "forged"}); got != statusStale {
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
	if got := coord.Complete(completeRequest{Token: a, Lease: id, Result: encodeResult(res)}); got != statusOK {
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
