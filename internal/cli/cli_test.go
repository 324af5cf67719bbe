package cli

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/run"
)

// parseSystem binds the system flags onto a fresh spec and parses args,
// mirroring what every binary does.
func parseSystem(t *testing.T, args ...string) *run.SystemSpec {
	t.Helper()
	spec := run.NewExperiment(run.KindSimulate)
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	BindSystem(fs, spec.System)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return spec.System
}

func TestSystemFlagsDefaultsBuildPaperPlatform(t *testing.T) {
	cfg, err := parseSystem(t).Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumClusters() != 16 || cfg.TotalNodes() != 256 {
		t.Fatalf("defaults: C=%d N=%d", cfg.NumClusters(), cfg.TotalNodes())
	}
	if cfg.Clusters[0].ICN1.Name != "GigabitEthernet" {
		t.Fatal("default case-1 technologies wrong")
	}
	if cfg.MessageBytes != 1024 {
		t.Fatalf("msg = %d", cfg.MessageBytes)
	}
}

func TestSystemFlagsCase2(t *testing.T) {
	cfg, err := parseSystem(t, "-case", "2", "-clusters", "8", "-msg", "512", "-arch", "blocking").Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Clusters[0].ICN1.Name != "FastEthernet" {
		t.Fatal("case 2 ICN1 wrong")
	}
	if cfg.NumClusters() != 8 || cfg.Clusters[0].Nodes != 32 {
		t.Fatal("cluster split wrong")
	}
}

func TestSystemFlagsTechOverride(t *testing.T) {
	cfg, err := parseSystem(t, "-icn1", "Myrinet", "-ecn", "IB").Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Clusters[0].ICN1.Name != "Myrinet" || cfg.ICN2.Name != "Infiniband" {
		t.Fatal("override not applied")
	}
	// Partial override is an error.
	if _, err := parseSystem(t, "-icn1", "Myrinet").Build(); err == nil {
		t.Fatal("partial override accepted")
	}
}

func TestSystemFlagsErrors(t *testing.T) {
	if _, err := parseSystem(t, "-clusters", "3").Build(); err == nil {
		t.Fatal("non-dividing cluster count accepted")
	}
	if _, err := parseSystem(t, "-arch", "torus").Build(); err == nil {
		t.Fatal("bad arch accepted")
	}
	if _, err := parseSystem(t, "-case", "7").Build(); err == nil {
		t.Fatal("bad case accepted")
	}
	if _, err := parseSystem(t, "-icn1", "bogus", "-ecn", "FE").Build(); err == nil {
		t.Fatal("bad technology accepted")
	}
}

func TestSystemFlagsConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sys.json")
	orig, err := core.PaperConfig(core.Case2, 8, 512, network.Blocking)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveConfig(orig, path); err != nil {
		t.Fatal(err)
	}
	// The -config flag overrides every other system flag.
	cfg, err := parseSystem(t, "-config", path, "-clusters", "99", "-msg", "4096").Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumClusters() != 8 || cfg.MessageBytes != 512 {
		t.Fatalf("config file not honoured: %s", cfg)
	}
	// Missing file errors.
	if _, err := parseSystem(t, "-config", filepath.Join(dir, "nope.json")).Build(); err == nil {
		t.Fatal("missing config accepted")
	}
}

func TestSystemFlagsExplicitNodes(t *testing.T) {
	cfg, err := parseSystem(t, "-clusters", "3", "-nodes", "5").Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TotalNodes() != 15 {
		t.Fatalf("total = %d", cfg.TotalNodes())
	}
}

func TestBindFlagsWriteThroughSpec(t *testing.T) {
	spec := run.NewExperiment(run.KindSimulate)
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	BindSimProcedure(fs, spec.Run)
	BindSimWorkload(fs, spec.Workload)
	BindArrival(fs, spec.Workload)
	BindPrecision(fs, spec.Precision)
	args := []string{"-seed", "9", "-messages", "500", "-service", "det",
		"-pattern", "local:0.8", "-arrival", "mmpp", "-burst-ratio", "20",
		"-precision", "0.02", "-confidence", "0.99", "-max-reps", "20"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if spec.Run.Seed != 9 || spec.Run.Messages != 500 {
		t.Fatalf("run section not written: %+v", spec.Run)
	}
	if spec.Workload.Service != "det" || spec.Workload.Pattern != "local:0.8" {
		t.Fatalf("workload section not written: %+v", spec.Workload)
	}
	if spec.Workload.Arrival != "mmpp" || spec.Workload.BurstRatio != 20 {
		t.Fatalf("arrival not written: %+v", spec.Workload)
	}
	p, err := spec.Precision.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || p.RelWidth != 0.02 || p.Confidence != 0.99 || p.MaxReps != 20 || p.MinReps != 4 {
		t.Fatalf("precision spec = %+v", p)
	}
}

func TestBindNetAndPlanWriteThrough(t *testing.T) {
	spec := run.NewExperiment(run.KindNetsim)
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	BindNet(fs, spec.Net)
	if err := fs.Parse([]string{"-topo", "linear-array", "-n", "24", "-tech", "FE"}); err != nil {
		t.Fatal(err)
	}
	if spec.Net.Topo != "linear-array" || spec.Net.N != 24 || spec.Net.Tech != "FE" {
		t.Fatalf("net section not written: %+v", spec.Net)
	}
	if spec.Net.Ports != 8 || spec.Net.Lambda != 10000 {
		t.Fatalf("net defaults lost: %+v", spec.Net)
	}

	pspec := run.NewExperiment(run.KindPlan)
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	BindPlan(fs2, pspec.Plan)
	if err := fs2.Parse([]string{"-slo-latency", "1.5", "-min-nodes", "64", "-port-costs", "FE=0.5"}); err != nil {
		t.Fatal(err)
	}
	if pspec.Plan.SLOLatencyMs != 1.5 || pspec.Plan.MinNodes != 64 || pspec.Plan.PortCosts != "FE=0.5" {
		t.Fatalf("plan section not written: %+v", pspec.Plan)
	}
	if pspec.Plan.SLOUtil != 0.95 || pspec.Plan.Top != 3 || pspec.Plan.Format != "md" {
		t.Fatalf("plan defaults lost: %+v", pspec.Plan)
	}
}

func TestPrecisionDefaultIsFixedMode(t *testing.T) {
	spec := run.NewExperiment(run.KindSimulate)
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	BindPrecision(fs, spec.Precision)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if p, err := spec.Precision.Build(); err != nil || p != nil {
		t.Fatalf("unset precision produced %+v, %v", p, err)
	}
}

func TestPreloadSpecDefaultsWhenAbsent(t *testing.T) {
	spec, err := PreloadSpec([]string{"-clusters", "8"}, run.KindSimulate)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != run.KindSimulate || spec.System.Clusters != 16 {
		t.Fatalf("default spec = %+v", spec)
	}
}

func TestPreloadSpecLoadsAndChecksKind(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "exp.json")
	if err := os.WriteFile(path, []byte(`{"v":1,"kind":"simulate","system":{"clusters":4}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-spec", path},
		{"-spec=" + path},
		{"-messages", "100", "-spec", path},
	} {
		spec, err := PreloadSpec(args, run.KindSimulate)
		if err != nil {
			t.Fatalf("args %v: %v", args, err)
		}
		if spec.System.Clusters != 4 {
			t.Fatalf("args %v: spec not loaded: %+v", args, spec.System)
		}
	}
	// A spec of another kind is rejected: each binary runs one kind.
	if _, err := PreloadSpec([]string{"-spec", path}, run.KindAnalyze); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if _, err := PreloadSpec([]string{"-spec", filepath.Join(dir, "missing.json")}, run.KindSimulate); err == nil {
		t.Fatal("missing spec accepted")
	}
}

func TestPreloadSpecFlagsOverride(t *testing.T) {
	// The loaded spec provides the flag defaults; explicitly-set flags win.
	dir := t.TempDir()
	path := filepath.Join(dir, "exp.json")
	if err := os.WriteFile(path, []byte(`{"v":1,"kind":"simulate","run":{"messages":5000,"seed":7}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-spec", path, "-messages", "100"}
	spec, err := PreloadSpec(args, run.KindSimulate)
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var xf ExperimentFlags
	xf.Register(fs)
	BindSimProcedure(fs, spec.Run)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if spec.Run.Messages != 100 {
		t.Fatalf("explicit -messages did not override spec: %d", spec.Run.Messages)
	}
	if spec.Run.Seed != 7 {
		t.Fatalf("unset flag clobbered spec value: seed = %d", spec.Run.Seed)
	}
}

func TestExperimentFlagsContextTimeout(t *testing.T) {
	x := ExperimentFlags{Timeout: time.Minute}
	ctx, cancel := x.Context()
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Fatal("timeout did not set a deadline")
	}
	x2 := ExperimentFlags{}
	ctx2, cancel2 := x2.Context()
	defer cancel2()
	if _, ok := ctx2.Deadline(); ok {
		t.Fatal("deadline without -timeout")
	}
}

func TestExperimentFlagsSinks(t *testing.T) {
	dir := t.TempDir()
	var buf strings.Builder
	x := ExperimentFlags{Emit: filepath.Join(dir, "ev.jsonl")}
	sinks, closer, err := x.Sinks(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(sinks) != 2 {
		t.Fatalf("want markdown+jsonl sinks, got %d", len(sinks))
	}
	if err := closer(); err != nil {
		t.Fatal(err)
	}
	// Without -emit only the markdown sink remains.
	x2 := ExperimentFlags{}
	sinks2, closer2, err := x2.Sinks(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(sinks2) != 1 {
		t.Fatalf("want 1 sink, got %d", len(sinks2))
	}
	if err := closer2(); err != nil {
		t.Fatal(err)
	}
}
