package serve_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hmscs/internal/run"
	"hmscs/internal/serve"
)

// tsField matches the sink-stamped wall-clock timestamp on a JSONL line.
// Content comparisons normalize it: two runs of the same spec emit the
// same events with the same seq numbers but necessarily different wall
// clocks (the cached *replay*, by contrast, is byte-identical as-is).
var tsField = regexp.MustCompile(`"ts":"[^"]*"`)

func stripTS(b []byte) []byte {
	return tsField.ReplaceAll(b, []byte(`"ts":"X"`))
}

// smallSimulate is a simulate spec cheap enough for -race but with real
// event traffic (three replications).
func smallSimulate() *run.Experiment {
	e := run.NewExperiment(run.KindSimulate)
	e.System.Clusters = 4
	e.System.Total = 16
	e.Run.Messages = 500
	e.Run.Warmup = 100
	return e
}

// longSweep mirrors the run package's cancellation workload, sized up
// so a DELETE arriving over HTTP (after the first streamed event)
// reliably lands mid-run rather than after completion.
func longSweep() *run.Experiment {
	e := run.NewExperiment(run.KindSweep)
	e.Sweep.Var = "clusters"
	e.Sweep.Ints = "1,2,4,8,16,32,64"
	e.Run.Messages = 20000
	e.Run.Reps = 8
	return e
}

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *serve.Client, func()) {
	t.Helper()
	srv := serve.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	return srv, serve.NewClient(ts.URL), func() {
		ts.Close()
		srv.Close()
	}
}

// TestCacheHitByteIdentical is the tentpole's exactness claim end to
// end: the first submission runs the simulation, the second is served
// from cache with no simulation work, and both the markdown report and
// the replayed event stream are byte-identical to a local run.Run of
// the same spec. Parallelism is pinned to 1 on both sides because event
// *order* (not content) varies at higher parallelism.
func TestCacheHitByteIdentical(t *testing.T) {
	spec := smallSimulate()
	ctx := context.Background()

	// Local reference: the same sinks the server wires per job.
	var wantMD, wantEvents bytes.Buffer
	sinks := []run.Sink{run.NewJSONLSink(&wantEvents), run.NewMarkdownSink(&wantMD)}
	if _, err := run.Run(ctx, spec, run.Options{Parallelism: 1, Sinks: sinks}); err != nil {
		t.Fatal(err)
	}

	_, client, shutdown := newTestServer(t, serve.Config{Parallelism: 1, MaxJobs: 1})
	defer shutdown()

	var got [2]struct{ md, events bytes.Buffer }
	var infos [2]serve.JobInfo
	for i := range got {
		info, err := client.Execute(ctx, spec, &got[i].md, &got[i].events)
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		infos[i] = info
	}
	if infos[0].Cached {
		t.Fatal("first submission reported cached")
	}
	if !infos[1].Cached {
		t.Fatal("second submission of an identical spec did not hit the cache")
	}
	if infos[0].SpecHash != infos[1].SpecHash {
		t.Fatalf("spec hashes differ: %s vs %s", infos[0].SpecHash, infos[1].SpecHash)
	}
	for i := range got {
		if !bytes.Equal(got[i].md.Bytes(), wantMD.Bytes()) {
			t.Errorf("submission %d: markdown report differs from local run.Run\ngot:\n%s\nwant:\n%s",
				i, got[i].md.Bytes(), wantMD.Bytes())
		}
		if !bytes.Equal(stripTS(got[i].events.Bytes()), stripTS(wantEvents.Bytes())) {
			t.Errorf("submission %d: event stream differs from local run.Run\ngot:\n%s\nwant:\n%s",
				i, got[i].events.Bytes(), wantEvents.Bytes())
		}
	}
	// The cached replay itself is byte-identical to the first run's
	// stream, timestamps included: the cache replays recorded bytes.
	if !bytes.Equal(got[1].events.Bytes(), got[0].events.Bytes()) {
		t.Error("cached replay is not byte-identical to the recorded stream")
	}
}

// TestMetricsAndJobResources covers the observability surface: an
// executed job reports engine accounting in its snapshot, a cache-hit
// job reports none (it did no work), /metrics moves the run and cache
// counters, and /healthz carries the scheduler gauges.
func TestMetricsAndJobResources(t *testing.T) {
	srv := serve.New(serve.Config{Parallelism: 1, MaxJobs: 1})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	client := serve.NewClient(ts.URL)
	ctx := context.Background()

	info, err := client.Execute(ctx, smallSimulate(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := info.Resources
	if r == nil {
		t.Fatal("executed job reports no resources")
	}
	if r.SimEvents <= 0 || r.Generated <= 0 || r.Replications <= 0 || r.WallSeconds <= 0 {
		t.Fatalf("implausible resources: %+v", *r)
	}
	hit, err := client.Execute(ctx, smallSimulate(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("second identical submission did not hit the cache")
	}
	if hit.Resources != nil {
		t.Errorf("cache-hit job reports resources %+v, want none", *hit.Resources)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		"hmscs_runs_total 1",
		"hmscs_jobs_submitted_total 2",
		"hmscs_jobs_done_total 1",
		"hmscs_cache_hits_total 1",
		"hmscs_cache_misses_total 1",
		"hmscs_cache_entries 1",
		"# TYPE hmscs_job_wall_seconds histogram",
		"hmscs_job_wall_seconds_count 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
	if strings.Contains(string(body), "hmscs_shard_") {
		t.Errorf("/metrics still exposes an hmscs_shard_ family\n%s", body)
	}

	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, key := range []string{"queue_depth", "queued_jobs", "running_jobs", "cache_entries", "uptime_s", "runs"} {
		if !strings.Contains(string(health), `"`+key+`"`) {
			t.Errorf("/healthz missing %q field:\n%s", key, health)
		}
	}
}

// TestCacheHitRunsNothing pins the "no simulation work" half of the
// cache contract via the server's run counter.
func TestCacheHitRunsNothing(t *testing.T) {
	srv, client, shutdown := newTestServer(t, serve.Config{Parallelism: 1, MaxJobs: 1})
	defer shutdown()
	ctx := context.Background()
	spec := smallSimulate()
	for i := 0; i < 3; i++ {
		if _, err := client.Execute(ctx, spec, nil, nil); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	if n := srv.Runs(); n != 1 {
		t.Fatalf("server executed %d runs for 3 identical submissions, want 1", n)
	}
}

// firstWriteNotifier closes done on the first write; later writes are
// discarded. Used to detect that a stream has started delivering.
type firstWriteNotifier struct {
	once sync.Once
	done chan struct{}
}

func (w *firstWriteNotifier) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.done) })
	return len(p), nil
}

// TestConcurrentStreamsAndCancelNoLeak is the acceptance scenario:
// eight clients stream one running job's events, a DELETE lands
// mid-run, every stream terminates, the job reports cancelled, and no
// goroutine outlives the teardown (run under -race in CI).
func TestConcurrentStreamsAndCancelNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	_, client, shutdown := newTestServer(t, serve.Config{Parallelism: 4, MaxJobs: 1})
	ctx := context.Background()
	info, err := client.Submit(ctx, longSweep())
	if err != nil {
		t.Fatal(err)
	}

	started := &firstWriteNotifier{done: make(chan struct{})}
	var wg sync.WaitGroup
	streamErrs := make([]error, 8)
	for i := range streamErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streamErrs[i] = client.Events(ctx, info.ID, started)
		}(i)
	}

	<-started.done // at least one event delivered: the job is mid-run
	if _, err := client.Cancel(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	wg.Wait() // every stream must end once the job goes terminal
	for i, err := range streamErrs {
		if err != nil {
			t.Errorf("stream %d: %v", i, err)
		}
	}

	got, err := client.Job(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != serve.StatusCancelled {
		t.Fatalf("status = %s, want %s", got.Status, serve.StatusCancelled)
	}
	if err := client.Result(ctx, info.ID, io.Discard); err == nil {
		t.Fatal("Result of a cancelled job succeeded, want error")
	}

	shutdown()
	// Drained-pool assertion, same idiom as the run package: workers,
	// stream handlers and watch goroutines must all have exited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before, %d after — server leaked", before, after)
	}
}

// TestCancelQueuedJob: a job cancelled while still queued must go
// terminal without ever running, and the worker must skip it.
func TestCancelQueuedJob(t *testing.T) {
	_, client, shutdown := newTestServer(t, serve.Config{Parallelism: 2, MaxJobs: 1})
	defer shutdown()
	ctx := context.Background()

	blocker, err := client.Submit(ctx, longSweep())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := client.Submit(ctx, smallSimulate())
	if err != nil {
		t.Fatal(err)
	}
	if queued.Status != serve.StatusQueued {
		t.Fatalf("second job status = %s, want %s", queued.Status, serve.StatusQueued)
	}
	info, err := client.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != serve.StatusCancelled {
		t.Fatalf("cancelled-while-queued status = %s, want %s", info.Status, serve.StatusCancelled)
	}
	if _, err := client.Cancel(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	// The queued job must never execute: its event log stays empty.
	var events bytes.Buffer
	if err := client.Events(ctx, queued.ID, &events); err != nil {
		t.Fatal(err)
	}
	if events.Len() != 0 {
		t.Fatalf("cancelled-while-queued job emitted events:\n%s", events.Bytes())
	}
}

// TestCloseTwice: a second Close, as a deferred one after an explicit
// shutdown, does nothing; the first has already ended every job.
func TestCloseTwice(t *testing.T) {
	srv := serve.New(serve.Config{Parallelism: 1, MaxJobs: 1})
	running, err := srv.Submit(longSweep())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := srv.Submit(smallSimulate())
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close()
	for _, j := range []*serve.Job{running, queued} {
		if st := j.Status(); !st.Terminal() {
			t.Errorf("job %s is %s after Close, want a terminal status", j.ID(), st)
		}
	}
}

// TestJobsListOrder: /jobs reports submissions in arrival order with
// stable IDs.
func TestJobsListOrder(t *testing.T) {
	_, client, shutdown := newTestServer(t, serve.Config{Parallelism: 1, MaxJobs: 1})
	defer shutdown()
	ctx := context.Background()

	specs := []*run.Experiment{run.NewExperiment(run.KindAnalyze), smallSimulate()}
	for _, s := range specs {
		if _, err := client.Execute(ctx, s, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	jobs, err := client.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(jobs))
	}
	if jobs[0].ID != "j000001" || jobs[1].ID != "j000002" {
		t.Fatalf("ids = %s, %s — want j000001, j000002", jobs[0].ID, jobs[1].ID)
	}
	if jobs[0].Kind != run.KindAnalyze || jobs[1].Kind != run.KindSimulate {
		t.Fatalf("kinds = %s, %s", jobs[0].Kind, jobs[1].Kind)
	}
	for _, j := range jobs {
		if j.Status != serve.StatusDone {
			t.Fatalf("job %s status = %s, want done", j.ID, j.Status)
		}
	}
}

// TestSubmitRejectsInvalidSpec: envelope validation failures surface at
// submit time, not as failed jobs.
func TestSubmitRejectsInvalidSpec(t *testing.T) {
	_, client, shutdown := newTestServer(t, serve.Config{Parallelism: 1, MaxJobs: 1})
	defer shutdown()
	bad := &run.Experiment{V: 1, Kind: "frobnicate"}
	if _, err := client.Submit(context.Background(), bad); err == nil {
		t.Fatal("submitting an unknown kind succeeded, want error")
	}
}

// TestFailedJobSurfacesError: a spec that passes envelope validation but
// fails when built (unknown sweep variable) ends as a failed job, and
// Execute carries the server's message back as an error.
func TestFailedJobSurfacesError(t *testing.T) {
	_, client, shutdown := newTestServer(t, serve.Config{Parallelism: 1, MaxJobs: 1})
	defer shutdown()
	ctx := context.Background()
	bad := run.NewExperiment(run.KindSweep)
	bad.Sweep.Var = "no-such-parameter"
	info, err := client.Execute(ctx, bad, nil, nil)
	if err == nil {
		t.Fatal("executing a spec with an unknown sweep variable succeeded, want error")
	}
	if info.Status != serve.StatusFailed {
		t.Fatalf("status = %s, want %s", info.Status, serve.StatusFailed)
	}
	if info.Error == "" {
		t.Fatal("failed job carries no error message")
	}
}

// TestSubmitRejectsPathFields: a spec is a value, so a POST /jobs body
// that names a file, to read (config_path, trace_file, space_path) or
// to write (trace_out, emit_configs), fails the spec's unknown-field
// check with a 400. No job is created, nothing runs, and no file
// appears.
func TestSubmitRejectsPathFields(t *testing.T) {
	srv := serve.New(serve.Config{Parallelism: 1, MaxJobs: 1})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	dir := t.TempDir()
	config := filepath.Join(dir, "system.json")
	if err := os.WriteFile(config, []byte(`{"clusters":[{"nodes":4,"lambda_per_s":100,"icn1":{"name":"GE"},"ecn1":{"name":"FE"}}],"icn2":{"name":"FE"},"arch":"non-blocking","switch_ports":24,"switch_latency_us":10,"message_bytes":1024}`), 0o644); err != nil {
		t.Fatal(err)
	}
	traceOut := filepath.Join(dir, "journeys.csv")
	emitDir := filepath.Join(dir, "winners")
	for _, body := range []string{
		`{"kind":"analyze","system":{"config_path":"` + config + `"}}`,
		`{"kind":"netsim","net":{"config_path":"` + config + `"}}`,
		`{"kind":"simulate","workload":{"arrival":"trace","trace_file":"` + config + `"}}`,
		`{"kind":"plan","plan":{"space_path":"` + config + `"}}`,
		`{"kind":"simulate","simulate":{"trace_out":"` + traceOut + `"}}`,
		`{"kind":"plan","plan":{"top":0,"emit_configs":"` + emitDir + `"}}`,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "unknown field") {
			t.Errorf("%s: POST /jobs answered %d %s, want 400 naming the unknown field", body, resp.StatusCode, msg)
		}
	}
	if jobs := srv.Store().List(); len(jobs) != 0 || srv.Runs() != 0 {
		t.Fatalf("path-carrying specs became %d jobs and %d runs", len(jobs), srv.Runs())
	}
	for _, path := range []string{traceOut, emitDir} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s exists after a rejected submission (stat: %v)", path, err)
		}
	}
}

// TestSubmitRejectsTraceOut: an in-process spec can still set the
// simulate section's TraceOut, which is not part of the wire spec, but
// the server writes no files, so Submit refuses it.
func TestSubmitRejectsTraceOut(t *testing.T) {
	srv := serve.New(serve.Config{Parallelism: 1, MaxJobs: 1})
	defer srv.Close()
	spec := smallSimulate()
	spec.Simulate.TraceOut = filepath.Join(t.TempDir(), "journeys.csv")
	if _, err := srv.Submit(spec); err == nil || !strings.Contains(err.Error(), "writes no files") {
		t.Fatalf("Submit of a spec with TraceOut: %v, want a refusal", err)
	}
	if _, err := os.Stat(spec.Simulate.TraceOut); !os.IsNotExist(err) {
		t.Fatalf("journey CSV exists after a refused submission (stat: %v)", err)
	}
}

// TestSubmitRejectsNegativeRunCounts pins that a negative run.messages,
// run.warmup or run.reps is a 400 at POST /jobs — for the system and the
// switch-level simulator alike, with the non-negative twin already
// cached — and never becomes a job.
func TestSubmitRejectsNegativeRunCounts(t *testing.T) {
	srv := serve.New(serve.Config{Parallelism: 1, MaxJobs: 1})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	ctx := context.Background()
	netsim := run.NewExperiment(run.KindNetsim)
	netsim.Run.Messages = 400
	netsim.Run.Warmup = 50
	for _, base := range []*run.Experiment{smallSimulate(), netsim} {
		if _, err := serve.NewClient(ts.URL).Execute(ctx, base, nil, nil); err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"messages", "warmup", "reps"} {
			bad := base.Clone()
			switch field {
			case "messages":
				bad.Run.Messages = -5
			case "warmup":
				bad.Run.Warmup = -5
			case "reps":
				bad.Run.Reps = -5
			}
			data, err := bad.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "run."+field) {
				t.Errorf("%s run.%s=-5: POST /jobs answered %d %s, want 400 naming run.%s", base.Kind, field, resp.StatusCode, body, field)
			}
		}
	}
	if n := srv.Runs(); n != 2 {
		t.Fatalf("server executed %d runs, want 2 (the valid twins only)", n)
	}
}

// TestSubmitRejectsInvalidPrecision pins that every precision value the
// stopping rule or the transient estimator would reject is a 400 at
// POST /jobs naming the field, whether or not rel_width selects adaptive
// mode, with the valid twin already cached, and never becomes a job.
func TestSubmitRejectsInvalidPrecision(t *testing.T) {
	srv := serve.New(serve.Config{Parallelism: 1, MaxJobs: 1})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	ctx := context.Background()
	netsim := run.NewExperiment(run.KindNetsim)
	netsim.Run.Messages = 400
	netsim.Run.Warmup = 50
	cases := []struct {
		field string
		set   func(p *run.PrecisionSpec)
	}{
		{"rel_width", func(p *run.PrecisionSpec) { p.RelWidth = -0.05 }},
		{"rel_width", func(p *run.PrecisionSpec) { p.RelWidth = 1 }},
		{"confidence", func(p *run.PrecisionSpec) { p.Confidence = -1 }},
		{"confidence", func(p *run.PrecisionSpec) { p.Confidence = 1 }},
		{"max_reps", func(p *run.PrecisionSpec) { p.MaxReps = -1 }},
		{"max_reps", func(p *run.PrecisionSpec) { p.RelWidth, p.MaxReps = 0.05, 2 }},
	}
	for _, base := range []*run.Experiment{smallSimulate(), netsim} {
		if _, err := serve.NewClient(ts.URL).Execute(ctx, base, nil, nil); err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			bad := base.Clone()
			c.set(bad.Precision)
			data, err := bad.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "precision."+c.field) {
				t.Errorf("%s %+v: POST /jobs answered %d %s, want 400 naming precision.%s",
					base.Kind, *bad.Precision, resp.StatusCode, body, c.field)
			}
		}
	}
	if n := srv.Runs(); n != 2 {
		t.Fatalf("server executed %d runs, want 2 (the valid twins only)", n)
	}
}

// TestShardsValidatedBeforeCache pins that run.shards is validated
// before any hash or cache lookup: with the shards-free twin cached, a
// negative value is still rejected (by Parse and by Submit alike), and a
// non-negative one above the cluster count is simply ignored — a cache
// hit whose report equals a local run.Run byte for byte.
func TestShardsValidatedBeforeCache(t *testing.T) {
	srv, client, shutdown := newTestServer(t, serve.Config{Parallelism: 1, MaxJobs: 1})
	defer shutdown()
	ctx := context.Background()
	if _, err := client.Execute(ctx, smallSimulate(), nil, nil); err != nil {
		t.Fatal(err)
	}

	negative := smallSimulate()
	negative.Run.Shards = -1
	if _, err := srv.Submit(negative); err == nil {
		t.Fatal("Submit accepted run.shards = -1 with a warm cache")
	}
	if _, err := client.Submit(ctx, negative); err == nil {
		t.Fatal("POST /jobs accepted run.shards = -1 with a warm cache")
	}
	data, err := negative.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Parse(data); err == nil {
		t.Fatal("Parse accepted run.shards = -1")
	}

	wide := smallSimulate() // 4 clusters
	wide.Run.Shards = 8
	var wantMD, gotMD bytes.Buffer
	if _, err := run.Run(ctx, wide, run.Options{Parallelism: 1, Sinks: []run.Sink{run.NewMarkdownSink(&wantMD)}}); err != nil {
		t.Fatal(err)
	}
	info, err := client.Execute(ctx, wide, &gotMD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Cached {
		t.Fatal("run.shards = 8 missed the cache entry of its shards-free twin")
	}
	if !bytes.Equal(gotMD.Bytes(), wantMD.Bytes()) {
		t.Fatalf("cached report differs from local run.Run:\n%s\n---\n%s", gotMD.Bytes(), wantMD.Bytes())
	}
}
