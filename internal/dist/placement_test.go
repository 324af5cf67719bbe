package dist

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hmscs/internal/run"
	"hmscs/internal/sim"
)

// testStage builds the spec's named stage and a stageRun over it for an
// executor with slots local lanes.
func testStage(t *testing.T, coord *Coordinator, e *run.Experiment, name string, slots int) *stageRun {
	t.Helper()
	prog, err := run.NewProgram(e)
	if err != nil {
		t.Fatal(err)
	}
	st, err := prog.Stage(name)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(context.Background(), coord, "stage-spec", e, slots)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	return &stageRun{e: ex, st: st, tail: len(st.Units) * st.Reps}
}

// outcomeOf waits a few seconds for off's outcome; a unit that never
// resolves fails the test rather than hanging it.
func outcomeOf(t *testing.T, off *offer) outcome {
	t.Helper()
	select {
	case out := <-off.resolved:
		return out
	case <-time.After(5 * time.Second):
		t.Fatalf("unit %+v never resolved", off.unit)
		return outcome{}
	}
}

// TestTakeSizesRunsFromMeasurement pins the placement rule: nothing is
// offered before a local unit is measured; a run is the worker's guided
// self-scheduling share of the unplaced units, capped by the request,
// cut contiguously from the tail with the units' own seeds and centre
// counts; a worker whose grant cost exceeds grainFraction of that run's
// engine time gets nothing and moves nothing; and a stage whose head
// meets its tail is spent.
func TestTakeSizesRunsFromMeasurement(t *testing.T) {
	coord := NewCoordinator(time.Minute)
	defer coord.Close()
	s := testStage(t, coord, longSweepSpec(), run.StageSweep, 2) // 64 units
	if offs, spent := s.take(0, 1, maxLeaseUnits); offs != nil || spent {
		t.Fatalf("an unmeasured stage offered %d units (spent %v)", len(offs), spent)
	}
	s.head, s.localN, s.localNS = 4, 4, int64(4*time.Millisecond) // 1 ms a unit

	// 60 unplaced units over 2 local and 1 fleet lane: a share of 20,
	// capped at the request's 16. 16 ms of engine time carries up to
	// 1.6 ms of grant cost.
	if offs, _ := s.take(int64(1700*time.Microsecond), 1, maxLeaseUnits); offs != nil || s.tail != 64 {
		t.Fatalf("a grant cost above grainFraction of the run was offered %d units (tail %d)", len(offs), s.tail)
	}
	offs, spent := s.take(int64(1500*time.Microsecond), 1, maxLeaseUnits)
	if len(offs) != 16 || spent || s.tail != 48 {
		t.Fatalf("took %d units (spent %v, tail %d), want 16 from the tail", len(offs), spent, s.tail)
	}
	for i, off := range offs {
		k := 48 + i
		_, o, err := s.st.Unit(k/s.st.Reps, k%s.st.Reps)
		if err != nil {
			t.Fatal(err)
		}
		want := WireUnit{Stage: run.StageSweep, Point: k / s.st.Reps, Rep: k % s.st.Reps, Seed: o.Seed}
		if off.unit != want || off.centers != s.st.Centers(want.Point) || s.offs[k] != off {
			t.Fatalf("run unit %d is %+v with %d centres, want %+v with %d", i, off.unit, off.centers, want, s.st.Centers(want.Point))
		}
	}
	// 44 unplaced over 2 + 3 lanes: a share of 8.
	if offs, _ := s.take(0, 3, maxLeaseUnits); len(offs) != 8 || s.tail != 40 {
		t.Fatalf("took %d units (tail %d), want a share of 8", len(offs), s.tail)
	}
	s.head = 40
	if offs, spent := s.take(0, 1, maxLeaseUnits); offs != nil || !spent {
		t.Fatalf("a stage with nothing unplaced offered %d units (spent %v)", len(offs), spent)
	}
}

// TestShortStageStaysLocal: a worker polling throughout a stage whose
// units cannot amortise its grant (8 units of 50 messages: well under
// a millisecond each, even under the race detector) is offered none of
// them, so the job runs exactly as with no fleet.
func TestShortStageStaysLocal(t *testing.T) {
	e := distSweepSpec()
	e.Run.Warmup, e.Run.Messages = 10, 50
	want, _ := localBaseline(t, e, 1)
	coord := NewCoordinator(time.Minute)
	defer coord.Close()
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go (&Worker{Connect: ts.URL, Procs: 1}).Run(ctx) //nolint:errcheck // exits with ctx.Err on cancel
	for coord.Live() < 1 {
		time.Sleep(time.Millisecond)
	}
	ex, err := NewExecutor(ctx, coord, "short-spec", e, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	var report strings.Builder
	if _, err := run.Run(ctx, e, run.Options{Parallelism: 1, Sinks: []run.Sink{run.NewMarkdownSink(&report)}, Units: ex.Runner}); err != nil {
		t.Fatal(err)
	}
	if report.String() != want {
		t.Error("report differs from a local run")
	}
	if st := coord.Stats(); st.Leased != 0 || st.Local != 8 {
		t.Errorf("units leased %d, local %d; want 0 and all 8 local", st.Leased, st.Local)
	}
}

// TestBatchResolvesEachUnitOnce: a completion naming one unit twice
// resolves it once and answers the repeat stale, a unit it does not
// name stays leased, and when the lease expires only that unit is
// re-offered.
func TestBatchResolvesEachUnitOnce(t *testing.T) {
	coord := NewCoordinator(200 * time.Millisecond)
	defer coord.Close()
	reg := coord.Register("w", 1)
	offs := []*offer{newTestOffer("h"), newTestOffer("h"), newTestOffer("h")}
	for _, off := range offs {
		coord.enqueue(off)
	}
	leases, _ := coord.Lease(context.Background(), reg.Token, 3, time.Second)
	if len(leases) != 1 || len(leases[0].Units) != 3 {
		t.Fatalf("leased %+v, want one run of three units", leases)
	}
	ok := &sim.Result{Throughput: 7}
	got := coord.Complete(completeRequest{Token: reg.Token, Lease: leases[0].ID, Results: []unitOutcome{
		{Unit: 0, Result: ok}, {Unit: 0, Result: &sim.Result{Throughput: 8}}, {Unit: 2, Result: ok}, {Unit: 3, Result: ok},
	}})
	if got != statusOK {
		t.Fatalf("completion answered %q, want %q", got, statusOK)
	}
	for _, i := range []int{0, 2} {
		if out := outcomeOf(t, offs[i]); out.res == nil || out.res.Throughput != 7 {
			t.Fatalf("unit %d resolved %+v, want the first verdict", i, out)
		}
	}
	if st := coord.Stats(); st.Completed != 2 || st.Duplicate != 2 || coord.LeasedUnits() != 1 {
		t.Fatalf("stats %+v with %d units leased; want 2 completed, 2 stale verdicts, unit 1 still leased", st, coord.LeasedUnits())
	}
	again, _ := coord.Lease(context.Background(), reg.Token, 3, 2*time.Second)
	if len(again) != 1 || len(again[0].Units) != 1 {
		t.Fatalf("after expiry leased %+v, want a run of the one unresolved unit", again)
	}
	if st := coord.Stats(); st.Reassigned != 1 {
		t.Errorf("%d units reassigned, want 1", st.Reassigned)
	}
	if got := coord.Complete(completeRequest{Token: reg.Token, Lease: leases[0].ID, Results: []unitOutcome{{Unit: 1, Result: ok}}}); got != statusStale {
		t.Errorf("a completion of the expired lease answered %q, want %q", got, statusStale)
	}
	if got := coord.Complete(completeRequest{Token: reg.Token, Lease: again[0].ID, Results: []unitOutcome{{Unit: 0, Result: ok}}}); got != statusOK {
		t.Errorf("the re-offered unit's completion answered %q, want %q", got, statusOK)
	}
	if out := outcomeOf(t, offs[1]); out.res == nil {
		t.Errorf("unit 1 resolved %+v, want its result", out)
	}
}

// TestMisfitResultsRunLocally: results that do not fit their unit — a
// centre row short, more messages measured than generated, a negative
// count — resolve nothing remotely. Each unit reverts to local
// execution and counts against the worker; a fitting result in the same
// completion resolves.
func TestMisfitResultsRunLocally(t *testing.T) {
	coord := NewCoordinator(time.Minute)
	defer coord.Close()
	reg := coord.Register("liar", 1)
	offs := make([]*offer, 4)
	for i := range offs {
		offs[i] = newTestOffer("h")
		offs[i].centers = 2
		coord.enqueue(offs[i])
	}
	leases, _ := coord.Lease(context.Background(), reg.Token, 4, time.Second)
	if len(leases) != 1 || len(leases[0].Units) != 4 {
		t.Fatalf("leased %+v, want one run of four units", leases)
	}
	rows := []sim.CenterStats{{Name: "a"}, {Name: "b"}}
	coord.Complete(completeRequest{Token: reg.Token, Lease: leases[0].ID, Results: []unitOutcome{
		{Unit: 0, Result: &sim.Result{Centers: rows, Generated: 5, Measured: 4}},
		{Unit: 1, Result: &sim.Result{Centers: rows[:1], Generated: 5, Measured: 4}},
		{Unit: 2, Result: &sim.Result{Centers: rows, Generated: 4, Measured: 5}},
		{Unit: 3, Result: &sim.Result{Centers: []sim.CenterStats{{Served: -1}, {}}, Generated: 5}},
	}})
	if out := outcomeOf(t, offs[0]); out.res == nil || out.res.Measured != 4 {
		t.Errorf("the fitting unit resolved %+v", out)
	}
	for i, off := range offs[1:] {
		if out := outcomeOf(t, off); !out.revert {
			t.Errorf("misfit unit %d resolved %+v, want a revert to local execution", i+1, out)
		}
	}
	if st := coord.Stats(); st.Rejected != 3 || st.Completed != 1 {
		t.Errorf("stats %+v, want 3 rejected and 1 completed", st)
	}
	if w := coord.Workers()[0]; w.UnitsRejected != 3 || w.UnitsDone != 1 {
		t.Errorf("worker credited %d units and charged %d rejected, want 1 and 3", w.UnitsDone, w.UnitsRejected)
	}
}

// TestMisfitWorkerCannotMoveTheReport: a worker that drops one centre row
// from every result it delivers has all its units rejected; they run
// locally and the report equals a local run's.
func TestMisfitWorkerCannotMoveTheReport(t *testing.T) {
	e := longSweepSpec()
	want, _ := localBaseline(t, e, 1)
	coord := NewCoordinator(time.Minute)
	defer coord.Close()
	reg := coord.Register("liar", 1)
	prog, err := run.NewProgram(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for ctx.Err() == nil {
			leases, _ := coord.Lease(ctx, reg.Token, maxLeaseUnits, 50*time.Millisecond)
			for _, l := range leases {
				req := completeRun(prog, reg.Token, l)
				for _, u := range req.Results {
					if u.Result != nil {
						u.Result.Centers = u.Result.Centers[1:]
					}
				}
				coord.Complete(req)
			}
		}
	}()
	ex, err := NewExecutor(ctx, coord, "liar-spec", e, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	var report strings.Builder
	if _, err := run.Run(ctx, e, run.Options{Parallelism: 1, Sinks: []run.Sink{run.NewMarkdownSink(&report)}, Units: ex.Runner}); err != nil {
		t.Fatal(err)
	}
	if report.String() != want {
		t.Error("report differs from a local run")
	}
	if st := coord.Stats(); st.Rejected == 0 || st.Completed != 0 {
		t.Errorf("stats %+v, want the liar's units rejected and none completed", st)
	}
}

// TestMisfitSliceBinsRunLocally: a scenario unit's result must carry one
// slice pair per slice of its window, no negative count, only finite
// sums and counts that sum to its measured messages; a stationary unit's
// must carry none. Every result that breaks one of these reverts to
// local execution and counts against the worker.
func TestMisfitSliceBinsRunLocally(t *testing.T) {
	coord := NewCoordinator(time.Minute)
	defer coord.Close()
	reg := coord.Register("liar", 1)
	bins := func(sums []float64, counts []int64) *sim.Result {
		return &sim.Result{Generated: 5, Measured: 3, SliceSums: sums, SliceCounts: counts}
	}
	results := []*sim.Result{
		bins([]float64{1, 2}, []int64{2, 1}),           // fits
		bins([]float64{1}, []int64{2, 1}),              // a sum short
		bins([]float64{1, 2}, []int64{3}),              // a count short
		bins([]float64{1, 2}, []int64{2, 2}),           // a count off by one
		bins([]float64{1, 2}, []int64{4, -1}),          // a negative count
		bins([]float64{math.Inf(1), 2}, []int64{2, 1}), // a non-finite sum
		bins([]float64{1, 2}, []int64{2, 1}),           // bins from a stationary unit
	}
	offs := make([]*offer, len(results))
	for i := range offs {
		offs[i] = newTestOffer("h")
		if i < len(offs)-1 {
			offs[i].slices = 2
		}
		coord.enqueue(offs[i])
	}
	leases, _ := coord.Lease(context.Background(), reg.Token, len(offs), time.Second)
	if len(leases) != 1 || len(leases[0].Units) != len(offs) {
		t.Fatalf("leased %+v, want one run of %d units", leases, len(offs))
	}
	req := completeRequest{Token: reg.Token, Lease: leases[0].ID}
	for i, r := range results {
		req.Results = append(req.Results, unitOutcome{Unit: i, Result: r})
	}
	coord.Complete(req)
	if out := outcomeOf(t, offs[0]); out.res == nil || out.res.Measured != 3 {
		t.Errorf("the fitting unit resolved %+v", out)
	}
	for i, off := range offs[1:] {
		if out := outcomeOf(t, off); !out.revert {
			t.Errorf("misfit unit %d resolved %+v, want a revert to local execution", i+1, out)
		}
	}
	if w := coord.Workers()[0]; w.UnitsRejected != int64(len(offs)-1) || w.UnitsDone != 1 {
		t.Errorf("worker credited %d units and charged %d rejected, want 1 and %d", w.UnitsDone, w.UnitsRejected, len(offs)-1)
	}
}

// TestMisfitSliceWorkerCannotMoveTheReport: a worker whose scenario
// results alternate between a slice array one short and a slice count
// one too many has every such unit reverted; they run locally and the
// report and event stream equal a local run's.
func TestMisfitSliceWorkerCannotMoveTheReport(t *testing.T) {
	e, err := run.Load(filepath.Join("..", "..", "testdata", "experiments", "netsim-scenario.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Units of several ms each, so the worker is offered runs.
	e.Scenario.HorizonS, e.Run.Reps = 0.4, 32
	wantReport, wantEvents := localBaseline(t, e, 1)
	coord := NewCoordinator(time.Minute)
	defer coord.Close()
	reg := coord.Register("liar", 1)
	prog, err := run.NewProgram(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delivered [2]atomic.Int64 // short arrays, counts off by one
	go func() {
		n := 0
		for ctx.Err() == nil {
			leases, _ := coord.Lease(ctx, reg.Token, maxLeaseUnits, 50*time.Millisecond)
			for _, l := range leases {
				req := completeRun(prog, reg.Token, l)
				for _, u := range req.Results {
					if r := u.Result; r != nil {
						if n%2 == 0 {
							r.SliceSums, r.SliceCounts = r.SliceSums[1:], r.SliceCounts[1:]
						} else {
							r.SliceCounts[len(r.SliceCounts)-1]++
						}
						delivered[n%2].Add(1)
						n++
					}
				}
				coord.Complete(req)
			}
		}
	}()
	ex, err := NewExecutor(ctx, coord, "slice-liar-spec", e, 1)
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
		t.Fatal(err)
	}
	cancel()
	if report.String() != wantReport {
		t.Errorf("report differs from a local run:\n--- local ---\n%s\n--- misfit worker ---\n%s", wantReport, report.String())
	}
	if got := normalizeTS(events.String()); got != wantEvents {
		t.Errorf("event stream differs from a local run:\n--- local ---\n%s\n--- misfit worker ---\n%s", wantEvents, got)
	}
	if st := coord.Stats(); st.Rejected == 0 || st.Completed != 0 {
		t.Errorf("stats %+v, want the liar's units rejected and none completed", st)
	}
	if short, over := delivered[0].Load(), delivered[1].Load(); short == 0 || over == 0 {
		t.Errorf("the worker delivered %d results with a short slice array and %d with a count off by one; want both kinds", short, over)
	}
}

// TestAbandonedPollStrandsNothing: a worker's long-poll whose client
// goes away mid-wait must strand nothing. Whether the poll ends before
// the job offers a run or its grant goes straight back for re-offer (the
// server notices the disconnect asynchronously), a job that starts once
// the poller has left finishes well inside one lease TTL, holds no lease
// at the end, and equals a local run.
func TestAbandonedPollStrandsNothing(t *testing.T) {
	e := longSweepSpec()
	want, _ := localBaseline(t, e, 1)
	const ttl = time.Minute
	coord := NewCoordinator(ttl)
	defer coord.Close()
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	reg := coord.Register("gone", 1)

	pollCtx, hangUp := context.WithCancel(context.Background())
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		body := `{"token":"` + reg.Token + `","max":16,"wait_ms":30000}`
		req, _ := http.NewRequestWithContext(pollCtx, http.MethodPost, ts.URL+"/dist/lease", bytes.NewReader([]byte(body)))
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(100 * time.Millisecond) // the poll is waiting inside Lease
	hangUp()
	<-polled

	start := time.Now()
	ex, err := NewExecutor(context.Background(), coord, "abandoned-spec", e, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	var report strings.Builder
	if _, err := run.Run(context.Background(), e, run.Options{Parallelism: 1, Sinks: []run.Sink{run.NewMarkdownSink(&report)}, Units: ex.Runner}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > ttl/4 {
		t.Errorf("the job took %v; a unit waited on a poller that had left", took)
	}
	if report.String() != want {
		t.Error("report differs from a local run")
	}
	if n := coord.LeasedUnits(); n != 0 {
		t.Errorf("%d units are still leased to a poller that had left", n)
	}
}

// TestAbandonedGrantIsReoffered: a run granted to a poller that has left
// goes straight back for re-offer — the next poll takes it — and one a
// local slot already waits for reverts to that slot.
func TestAbandonedGrantIsReoffered(t *testing.T) {
	coord := NewCoordinator(time.Minute)
	defer coord.Close()
	a, b := coord.Register("a", 1), coord.Register("b", 1)
	offs := []*offer{newTestOffer("h"), newTestOffer("h")}
	for _, off := range offs {
		coord.enqueue(off)
	}
	grants, _ := coord.Lease(context.Background(), a.Token, 2, time.Second)
	if len(grants) != 1 {
		t.Fatalf("leased %+v, want one run", grants)
	}
	if coord.reclaim(offs[1]) {
		t.Fatal("a local slot took back a leased unit")
	}
	coord.abandon(grants)
	if out := outcomeOf(t, offs[1]); !out.revert {
		t.Fatalf("the waited-for unit resolved %+v, want a revert to its slot", out)
	}
	again, _ := coord.Lease(context.Background(), b.Token, 2, time.Second)
	if len(again) != 1 || len(again[0].Units) != 1 || coord.LeasedUnits() != 1 {
		t.Fatalf("the next poll leased %+v (%d units out), want the other unit", again, coord.LeasedUnits())
	}
	res := &sim.Result{Throughput: 3}
	if got := coord.Complete(completeRequest{Token: b.Token, Lease: again[0].ID, Results: []unitOutcome{{Result: res}}}); got != statusOK {
		t.Fatalf("completion answered %q", got)
	}
	if out := outcomeOf(t, offs[0]); out.res == nil || out.res.Throughput != 3 {
		t.Fatalf("the re-offered unit resolved %+v", out)
	}
}

// TestLargeCompletionIsSplit: a run whose completion would exceed the
// coordinator's body limit (two units with long samples) is delivered in
// parts the coordinator accepts, and both units resolve.
func TestLargeCompletionIsSplit(t *testing.T) {
	coord := NewCoordinator(time.Minute)
	defer coord.Close()
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	w := &Worker{Connect: ts.URL}
	reg := coord.Register("w", 1)
	w.token = reg.Token
	offs := []*offer{newTestOffer("h"), newTestOffer("h")}
	for _, off := range offs {
		coord.enqueue(off)
	}
	leases, _ := coord.Lease(context.Background(), reg.Token, 2, time.Second)
	if len(leases) != 1 || len(leases[0].Units) != 2 {
		t.Fatalf("leased %+v, want one run of two units", leases)
	}
	sample := make([]float64, maxBodyBytes/20) // ~20 JSON bytes a value: each unit's part is near the limit
	for i := range sample {
		sample[i] = 0.1234567890123 + float64(i)
	}
	req := completeRequest{Token: reg.Token, Lease: leases[0].ID, Results: []unitOutcome{
		{Unit: 0, Result: &sim.Result{Sample: sample}}, {Unit: 1, Result: &sim.Result{Sample: sample}},
	}}
	w.deliver(context.Background(), req)
	for i, off := range offs {
		select {
		case out := <-off.resolved:
			if out.res == nil || len(out.res.Sample) != len(sample) {
				t.Fatalf("unit %d resolved %+v", i, out.err)
			}
		default:
			t.Fatalf("unit %d never resolved: its completion was refused", i)
		}
	}
}
