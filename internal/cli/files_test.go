package cli

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/plan"
	"hmscs/internal/run"
	"hmscs/internal/serve"
)

// writePaperConfig saves the Case 1 platform at c clusters to path.
func writePaperConfig(t *testing.T, path string, c int) {
	t.Helper()
	cfg, err := core.PaperConfig(core.Case1, c, 1024, network.NonBlocking)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveConfig(cfg, path); err != nil {
		t.Fatal(err)
	}
}

// TestInputFilesBecomeSpecValues: -config, -trace and -space are read
// when the flags are parsed, into the spec's values, and the spec's
// JSON names none of the files.
func TestInputFilesBecomeSpecValues(t *testing.T) {
	dir := t.TempDir()
	config := filepath.Join(dir, "system.json")
	writePaperConfig(t, config, 4)
	trace := filepath.Join(dir, "trace.csv")
	if err := os.WriteFile(trace, []byte("0\n0.5\n0.6\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	space := filepath.Join(dir, "space.json")
	if err := plan.SaveSpace(plan.DefaultSpace(), space); err != nil {
		t.Fatal(err)
	}
	sim := parse(t, run.KindSimulate, "-config", config, "-arrival", "trace", "-trace", trace)
	if sim.System.Config == nil || sim.System.Config.NumClusters() != 4 {
		t.Fatalf("-config not read into the system section: %+v", sim.System)
	}
	if len(sim.Workload.Trace) != 4 || sim.Workload.Trace[3] != 2 {
		t.Fatalf("-trace not read into the workload section: %v", sim.Workload.Trace)
	}
	net := parse(t, run.KindNetsim, "-config", config)
	if net.Net.Config == nil || net.Net.Config.NumClusters() != 4 {
		t.Fatalf("-config not read into the net section: %+v", net.Net)
	}
	pln := parse(t, run.KindPlan, "-space", space)
	if pln.Plan.Space == nil || len(pln.Plan.Space.Clusters) != len(plan.DefaultSpace().Clusters) {
		t.Fatalf("-space not read into the plan section: %+v", pln.Plan)
	}
	for _, e := range []*run.Experiment{sim, net, pln} {
		data, err := e.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), dir) {
			t.Fatalf("%s spec names a file:\n%s", e.Kind, data)
		}
	}
}

// TestSubmitRejectsFileOutputs: the server writes no files, so -submit
// with -trace-out or -emit-configs fails before anything is submitted,
// and no file is written.
func TestSubmitRejectsFileOutputs(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		http.Error(w, "nothing should be submitted", http.StatusTeapot)
	}))
	defer ts.Close()
	dir := t.TempDir()
	for _, c := range []struct {
		kind run.Kind
		flag string
		path string
	}{
		{run.KindSimulate, "-trace-out", filepath.Join(dir, "journeys.csv")},
		{run.KindPlan, "-emit-configs", filepath.Join(dir, "winners")},
	} {
		var out strings.Builder
		err := Main(c.kind, []string{c.flag, c.path, "-submit", ts.URL}, &out)
		if err == nil || !strings.Contains(err.Error(), c.flag) || !strings.Contains(err.Error(), "-submit") {
			t.Errorf("%s with -submit: %v, want a refusal naming both flags", c.flag, err)
		}
		if _, err := os.Stat(c.path); !os.IsNotExist(err) {
			t.Errorf("%s %s exists after the refusal (stat: %v)", c.flag, c.path, err)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("the server saw %d requests", n)
	}
}

// TestSubmitReadsConfigPerInvocation: the cache is exact for files
// too. The same invocation, submitted before and after its -config file
// is rewritten from C=4 to C=64, runs twice and reports the rewritten
// system the second time, as a local run does; only an unchanged file
// is a cache hit.
func TestSubmitReadsConfigPerInvocation(t *testing.T) {
	srv := serve.New(serve.Config{Parallelism: 1, MaxJobs: 1})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	path := filepath.Join(t.TempDir(), "system.json")
	submit := func() string {
		t.Helper()
		var out strings.Builder
		if err := Main(run.KindAnalyze, []string{"-config", path, "-submit", ts.URL}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	writePaperConfig(t, path, 4)
	first := submit()
	writePaperConfig(t, path, 64)
	second := submit()
	if first == second {
		t.Fatalf("the rewritten config reported the old system:\n%s", second)
	}
	if n := srv.Runs(); n != 2 {
		t.Fatalf("server ran %d jobs for two different configs, want 2 (a stale cache hit)", n)
	}
	var local strings.Builder
	if err := Main(run.KindAnalyze, []string{"-config", path}, &local); err != nil {
		t.Fatal(err)
	}
	if second != local.String() {
		t.Fatalf("submitted report differs from the local one:\n%s\n---\n%s", second, local.String())
	}
	if third := submit(); third != second || srv.Runs() != 2 {
		t.Fatalf("an unchanged config was not a cache hit (runs %d)", srv.Runs())
	}
}
