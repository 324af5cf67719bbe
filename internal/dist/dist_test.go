package dist_test

// End-to-end suite over the real wire: a serve.Server with its HTTP
// handler, real dist.Worker clients attached over httptest, and the
// serve.Client driving submissions — the same three processes
// (hmscs-server, hmscs-worker, a -submit binary) a production cluster
// runs, minus the network namespace. Every test pins the subsystem's
// one contract: distributed output is byte-identical to a local run.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"hmscs/internal/core"
	"hmscs/internal/dist"
	"hmscs/internal/network"
	"hmscs/internal/run"
	"hmscs/internal/scenario"
	"hmscs/internal/serve"
)

var tsRe = regexp.MustCompile(`"ts":"[^"]*"`)

func normTS(s string) string { return tsRe.ReplaceAllString(s, `"ts":"X"`) }

// clusterSpecs covers every distributable experiment kind across every
// execution mode: fixed, precision-adaptive and scenario-dynamic.
func clusterSpecs() map[string]*run.Experiment {
	specs := map[string]*run.Experiment{}

	simFixed := run.NewExperiment(run.KindSimulate)
	simFixed.System.Clusters = 2
	simFixed.System.Total = 8
	simFixed.Run.Messages = 300
	simFixed.Run.Reps = 2
	specs["simulate-fixed"] = simFixed

	simPrec := run.NewExperiment(run.KindSimulate)
	simPrec.System.Clusters = 2
	simPrec.System.Total = 8
	simPrec.Run.Messages = 400
	simPrec.Precision.RelWidth = 0.5
	simPrec.Precision.MaxReps = 4
	specs["simulate-precision"] = simPrec

	simScen := run.NewExperiment(run.KindSimulate)
	simScen.System.Clusters = 2
	simScen.System.Total = 8
	simScen.Run.Messages = 300
	simScen.Run.Reps = 2
	simScen.Scenario = &scenario.Spec{
		HorizonS: 0.05,
		Events: []scenario.Event{
			{TS: 0.02, Action: "fail", Target: "node:0"},
			{TS: 0.03, Action: "repair", Target: "node:0"},
		},
	}
	specs["simulate-scenario"] = simScen

	swp := run.NewExperiment(run.KindSweep)
	swp.Sweep.Var = "clusters"
	swp.Sweep.Ints = "1,2,4"
	swp.Run.Messages = 300
	swp.Run.Reps = 2
	specs["sweep-fixed"] = swp

	swpScen := run.NewExperiment(run.KindSweep)
	swpScen.Sweep.Var = "clusters"
	swpScen.Sweep.Ints = "2,4"
	swpScen.Run.Messages = 300
	swpScen.Run.Reps = 1
	swpScen.Scenario = &scenario.Spec{
		HorizonS: 0.05,
		Events:   []scenario.Event{{TS: 0.02, Action: "fail", Target: "cluster:largest"}},
	}
	specs["sweep-scenario"] = swpScen

	fig := run.NewExperiment(run.KindFigure)
	fig.Figure.What = "fig4"
	fig.Figure.Format = "csv"
	fig.Run.Messages = 200
	fig.Run.Reps = 1
	specs["figure-fig4"] = fig

	analyze := run.NewExperiment(run.KindAnalyze)
	analyze.System.Clusters = 2
	analyze.System.Total = 8
	analyze.Run.Messages = 400
	analyze.Precision.RelWidth = 0.5
	analyze.Precision.MaxReps = 4
	specs["analyze-precision"] = analyze

	pln := run.NewExperiment(run.KindPlan)
	pln.Plan.Top = 1
	pln.Run.Messages = 400
	pln.Precision.RelWidth = 0.5
	pln.Precision.MaxReps = 4
	specs["plan-top1"] = pln

	return specs
}

// configCarryingSpec is a simulate spec over a heterogeneous system
// read from a file the way the CLI's -config reads it. The file is
// deleted before the spec runs anywhere: the spec carries the
// configuration itself, so no host needs the file. The custom
// technology and the 12.5 µs switch latency are values the config
// codec must carry exactly through every re-marshal between the client,
// the server and the workers.
func configCarryingSpec(t *testing.T) *run.Experiment {
	t.Helper()
	custom := network.Technology{Name: "Custom", Latency: 12.5e-6, Bandwidth: 80e6}
	cfg := &core.Config{
		Clusters: []core.Cluster{
			{Nodes: 6, Lambda: 180, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
			{Nodes: 3, Lambda: 320, ICN1: custom, ECN1: network.GigabitEthernet},
		},
		ICN2: network.GigabitEthernet, Arch: network.Blocking,
		Switch: network.Switch{Ports: 16, Latency: 12.5e-6}, MessageBytes: 700,
	}
	path := filepath.Join(t.TempDir(), "system.json")
	if err := core.SaveConfig(cfg, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	e := run.NewExperiment(run.KindSimulate)
	e.System.Config = loaded
	e.Run.Messages = 300
	e.Run.Reps = 2
	return e
}

// localRun is the baseline: the exact invocation serve.runJob performs,
// minus the distribution hook. It returns the report, the ts-normalized
// events and the messages the engines generated.
func localRun(t *testing.T, e *run.Experiment) (string, string, int64) {
	t.Helper()
	var report, events strings.Builder
	out, err := run.Run(context.Background(), e, run.Options{
		Parallelism: 1,
		Sinks:       []run.Sink{run.NewMarkdownSink(&report), run.NewJSONLSink(&events)},
	})
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	return report.String(), normTS(events.String()), out.Telemetry.Sim.Generated
}

// cluster is one in-process deployment: a server, its HTTP listener,
// and n attached workers.
type cluster struct {
	srv  *serve.Server
	ts   *httptest.Server
	stop []context.CancelFunc
}

func startCluster(t *testing.T, workers int, ttl time.Duration) *cluster {
	t.Helper()
	// Parallelism 1 + MaxJobs 1 keeps the consuming pool sequential, so
	// the JSONL stream is byte-comparable (the strong -parallel 1 form);
	// caching is off so resubmissions re-run instead of replaying.
	srv := serve.New(serve.Config{Parallelism: 1, MaxJobs: 1, CacheSize: -1, DistLeaseTTL: ttl})
	ts := httptest.NewServer(srv.Handler())
	c := &cluster{srv: srv, ts: ts}
	t.Cleanup(func() {
		for _, stop := range c.stop {
			stop()
		}
		ts.Close()
		srv.Close()
	})
	for i := 0; i < workers; i++ {
		c.addWorker(t, fmt.Sprintf("w%d", i), nil)
	}
	c.waitLive(t, workers)
	return c
}

func (c *cluster) addWorker(t *testing.T, name string, hc *http.Client) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	c.stop = append(c.stop, cancel)
	w := &dist.Worker{Connect: c.ts.URL, Procs: 2, Name: name, HC: hc}
	go w.Run(ctx) //nolint:errcheck // exits with ctx.Err on cancel
	return cancel
}

func (c *cluster) waitLive(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.srv.Dist().Live() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers registered", c.srv.Dist().Live(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// submit drives the spec through the cluster the way a -submit binary
// would and returns (report, ts-normalized events, job info).
func (c *cluster) submit(t *testing.T, e *run.Experiment) (string, string, serve.JobInfo) {
	t.Helper()
	client := serve.NewClient(c.ts.URL)
	var report, events bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	info, err := client.Execute(ctx, e, &report, &events)
	if err != nil {
		t.Fatalf("remote execution: %v", err)
	}
	return report.String(), normTS(events.String()), info
}

// netsimSpecs are the switch-level engine's three modes, as
// testdata/golden-netsim.txt pins them: fixed, scenario and precision.
func netsimSpecs(t *testing.T) map[string]*run.Experiment {
	t.Helper()
	load := func(name string) *run.Experiment {
		e, err := run.Load(filepath.Join("..", "..", "testdata", "experiments", name))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	prec := load("netsim.json")
	prec.Precision.RelWidth = 0.05
	return map[string]*run.Experiment{
		"netsim-fixed":     load("netsim.json"),
		"netsim-scenario":  load("netsim-scenario.json"),
		"netsim-precision": prec,
	}
}

// TestDistributedMatchesLocal is the acceptance pin: for every
// experiment kind with stages, both engines' among them, a
// config-carrying spec, and worker count {0, 1, 2, 4}, the remote report
// and event stream are byte-identical to a plain local run, and the job
// generated as many messages. With workers attached, some netsim units
// must have run remotely.
func TestDistributedMatchesLocal(t *testing.T) {
	specs := clusterSpecs()
	specs["simulate-config"] = configCarryingSpec(t)
	for name, e := range netsimSpecs(t) {
		specs[name] = e
	}
	// A worker is offered a run only when its grant cost is a small share
	// of the run's engine time, so the netsim scenario runs 64
	// replications over a 0.4 s horizon (several ms each) for its units
	// to go remote at every worker count, with a few times the margin
	// the bootstrap price needs at 4 workers.
	long := specs["netsim-scenario"]
	long.Scenario.HorizonS, long.Run.Reps = 0.4, 64
	type baseline struct {
		report, events string
		generated      int64
	}
	baselines := map[string]baseline{}
	for name, e := range specs {
		r, ev, gen := localRun(t, e)
		baselines[name] = baseline{r, ev, gen}
	}
	counts := []int{0, 1, 2, 4}
	if testing.Short() {
		counts = []int{0, 1, 2}
	}
	for _, workers := range counts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := startCluster(t, workers, 0)
			var netsimRemote int64
			for name, e := range specs {
				before := c.srv.Dist().Stats().Completed
				report, events, info := c.submit(t, e)
				if strings.HasPrefix(name, "netsim") {
					netsimRemote += c.srv.Dist().Stats().Completed - before
				}
				if report != baselines[name].report {
					t.Errorf("%s: report differs from local run", name)
				}
				if events != baselines[name].events {
					t.Errorf("%s: event stream differs from local run:\n--- local ---\n%s\n--- remote ---\n%s",
						name, baselines[name].events, events)
				}
				if info.Resources == nil || info.Resources.Generated != baselines[name].generated {
					t.Errorf("%s: job resources %+v, want %d generated messages", name, info.Resources, baselines[name].generated)
				}
			}
			if workers > 0 && netsimRemote == 0 {
				t.Error("workers completed no netsim units; the switch-level engine was not distributed")
			}
		})
	}
}

// TestInProcessSubmitRunsMarshalledSpec: an in-process submission of a
// Go-built configuration whose switch latency changes on one JSON round
// trip (and with it one centre's service time) runs the marshalled spec its cache key and its workers see, so
// its report and stream are byte-identical at 0 and 1 workers and equal
// a local run of the parsed spec.
func TestInProcessSubmitRunsMarshalledSpec(t *testing.T) {
	e := run.NewExperiment(run.KindSimulate)
	e.System.Config = &core.Config{
		Clusters: []core.Cluster{
			{Nodes: 12, Lambda: 180, ICN1: network.GigabitEthernet, ECN1: network.GigabitEthernet},
			{Nodes: 3, Lambda: 320, ICN1: network.GigabitEthernet, ECN1: network.GigabitEthernet},
		},
		ICN2: network.GigabitEthernet, Arch: network.NonBlocking,
		Switch: network.Switch{Ports: 4, Latency: 1.6729663442585624e-05}, MessageBytes: 1024,
	}
	e.Run.Messages = 300
	e.Run.Reps = 2
	data, err := e.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := run.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	wantReport, wantEvents, _ := localRun(t, parsed)
	if _, events, _ := localRun(t, e); events == wantEvents {
		t.Fatal("the in-memory and the parsed spec run alike; the test needs a system whose outcome the round trip moves")
	}
	for _, workers := range []int{0, 1} {
		c := startCluster(t, workers, 0)
		job, err := c.srv.Submit(e)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(time.Minute)
		for !job.Status().Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: job did not finish", workers)
			}
			time.Sleep(5 * time.Millisecond)
		}
		report, ok := job.Result()
		if !ok {
			t.Fatalf("workers=%d: job ended %s: %s", workers, job.Status(), job.Info().Error)
		}
		lines, _ := job.EventsFrom(0)
		if string(report) != wantReport {
			t.Errorf("workers=%d: report differs from a local run of the parsed spec:\n%s\nwant\n%s", workers, report, wantReport)
		}
		if events := normTS(string(bytes.Join(lines, nil))); events != wantEvents {
			t.Errorf("workers=%d: event stream differs from a local run of the parsed spec:\n%s\nwant\n%s", workers, events, wantEvents)
		}
	}
}

// blackholeComplete swallows result deliveries: the worker runs units
// and holds its leases but its completions never arrive — the in-process
// stand-in for a worker whose process is SIGKILLed mid-delivery.
type blackholeComplete struct{ rt http.RoundTripper }

func (b blackholeComplete) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/dist/complete") {
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	return b.rt.RoundTrip(req)
}

// TestWorkerDeathMidRun kills one of two workers while it holds leased
// units of a running sweep: the units must reassign (units_reassigned
// moves) and the job's output must still be byte-identical to a local
// run.
func TestWorkerDeathMidRun(t *testing.T) {
	e := run.NewExperiment(run.KindSweep)
	e.Sweep.Var = "clusters"
	e.Sweep.Ints = "1,2,4,8"
	e.Run.Messages = 10000
	e.Run.Reps = 24 // units long and many enough for the workers' runs to amortise a grant
	wantReport, wantEvents, _ := localRun(t, e)

	c := startCluster(t, 1, 250*time.Millisecond)
	killDoomed := c.addWorker(t, "doomed", &http.Client{
		Transport: blackholeComplete{http.DefaultTransport},
	})
	c.waitLive(t, 2)

	done := make(chan struct{})
	var report, events string
	go func() {
		defer close(done)
		report, events, _ = c.submit(t, e)
	}()

	// Kill the doomed worker the moment it holds a lease. Its heartbeats
	// stop, the lease expires after one TTL, and the unit re-offers.
	deadline := time.Now().Add(30 * time.Second)
	killed := false
	for !killed {
		if time.Now().After(deadline) {
			t.Fatal("doomed worker never held a lease")
		}
		for _, w := range c.srv.Dist().Workers() {
			if w.Name == "doomed" && w.Leased > 0 {
				killDoomed()
				killed = true
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	<-done

	if report != wantReport {
		t.Error("report differs from local run after worker death")
	}
	if events != wantEvents {
		t.Errorf("event stream differs from local run after worker death:\n--- local ---\n%s\n--- remote ---\n%s",
			wantEvents, events)
	}
	if st := c.srv.Dist().Stats(); st.Reassigned == 0 {
		t.Error("killed worker's leases were never reassigned")
	}
}

// TestHealthzReportsWorkers pins the /healthz worker fields.
func TestHealthzReportsWorkers(t *testing.T) {
	c := startCluster(t, 2, 0)
	resp, err := http.Get(c.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	body := buf.String()
	for _, want := range []string{`"workers_attached": 2`, `"workers_live": 2`, `"leased_units": 0`} {
		if !strings.Contains(body, want) {
			t.Errorf("healthz missing %s:\n%s", want, body)
		}
	}
	wresp, err := http.Get(c.ts.URL + "/dist/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	var wbuf bytes.Buffer
	wbuf.ReadFrom(wresp.Body) //nolint:errcheck
	if !strings.Contains(wbuf.String(), `"procs":2`) {
		t.Errorf("GET /dist/workers missing worker detail:\n%s", wbuf.String())
	}
}

// TestResultCodecRoundTrip pins the wire codec's bit-exactness on real
// results of both engines: the system simulator's (Welford state, sample
// vector, per-centre stats) and the switch-level simulator's scenario
// replication (per-link Centers, switch hops, slice bins, drops).
func TestResultCodecRoundTrip(t *testing.T) {
	simulate := run.NewExperiment(run.KindSimulate)
	simulate.System.Clusters = 2
	simulate.System.Total = 8
	simulate.Run.Messages = 400
	for name, c := range map[string]struct {
		e     *run.Experiment
		stage string
	}{
		"simulate": {simulate, run.StageSim},
		"netsim":   {netsimSpecs(t)["netsim-scenario"], run.StageNetsim},
	} {
		prog, err := run.NewProgram(c.e)
		if err != nil {
			t.Fatal(err)
		}
		st, err := prog.Stage(c.stage)
		if err != nil {
			t.Fatal(err)
		}
		cfg, opts, err := st.Unit(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		opts.RecordSample = true
		res, err := st.Engine.Run(context.Background(), 0, 1, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Centers) == 0 || len(res.Sample) == 0 {
			t.Fatalf("%s: result carries no centres or sample", name)
		}
		if c.stage == run.StageNetsim && (res.SwitchHops.Count() == 0 || len(res.SliceCounts) == 0 || res.Dropped == 0) {
			t.Fatalf("%s: result carries no switch hops, slice bins or drops", name)
		}
		got, err := dist.RoundTripResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, got) {
			t.Errorf("%s: result changed across the wire:\nbefore: %+v\nafter:  %+v", name, res, got)
		}
	}
}
