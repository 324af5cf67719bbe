package cli

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/run"
)

// parse binds kind's flags onto a fresh spec of that kind and parses
// args, as Main does.
func parse(t *testing.T, kind run.Kind, args ...string) *run.Experiment {
	t.Helper()
	spec := run.NewExperiment(kind)
	fs, _, _ := newFlagSet(kind, spec)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return spec
}

// parseSystem parses args as hmscs-sim flags and returns the system
// section.
func parseSystem(t *testing.T, args ...string) *run.SystemSpec {
	t.Helper()
	return parse(t, run.KindSimulate, args...).System
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
	spec := parse(t, run.KindSimulate, "-seed", "9", "-messages", "500", "-service", "det",
		"-pattern", "local:0.8", "-arrival", "mmpp", "-burst-ratio", "20",
		"-precision", "0.02", "-confidence", "0.99", "-max-reps", "20")
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
	spec := parse(t, run.KindNetsim, "-topo", "linear-array", "-n", "24", "-tech", "FE")
	if spec.Net.Topo != "linear-array" || spec.Net.N != 24 || spec.Net.Tech != "FE" {
		t.Fatalf("net section not written: %+v", spec.Net)
	}
	if spec.Net.Ports != 8 || spec.Net.Lambda != 10000 {
		t.Fatalf("net defaults lost: %+v", spec.Net)
	}

	pspec := parse(t, run.KindPlan, "-slo-latency", "1.5", "-min-nodes", "64", "-port-costs", "FE=0.5")
	if pspec.Plan.SLOLatencyMs != 1.5 || pspec.Plan.MinNodes != 64 || pspec.Plan.PortCosts != "FE=0.5" {
		t.Fatalf("plan section not written: %+v", pspec.Plan)
	}
	if pspec.Plan.SLOUtil != 0.95 || pspec.Plan.Top != 3 || pspec.Plan.Format != "md" {
		t.Fatalf("plan defaults lost: %+v", pspec.Plan)
	}
}

func TestPrecisionDefaultIsFixedMode(t *testing.T) {
	spec := parse(t, run.KindSimulate)
	if p, err := spec.Precision.Build(); err != nil || p != nil {
		t.Fatalf("unset precision produced %+v, %v", p, err)
	}
}

func TestPreloadSpecDefaultsWhenAbsent(t *testing.T) {
	spec, err := preloadSpec([]string{"-clusters", "8"}, run.KindSimulate)
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
		spec, err := preloadSpec(args, run.KindSimulate)
		if err != nil {
			t.Fatalf("args %v: %v", args, err)
		}
		if spec.System.Clusters != 4 {
			t.Fatalf("args %v: spec not loaded: %+v", args, spec.System)
		}
	}
	// A spec of another kind is rejected: each binary runs one kind.
	if _, err := preloadSpec([]string{"-spec", path}, run.KindAnalyze); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if _, err := preloadSpec([]string{"-spec", filepath.Join(dir, "missing.json")}, run.KindSimulate); err == nil {
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
	spec, err := preloadSpec(args, run.KindSimulate)
	if err != nil {
		t.Fatal(err)
	}
	fs, _, _ := newFlagSet(run.KindSimulate, spec)
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
	x := experimentFlags{timeout: time.Minute}
	ctx, cancel := x.runContext()
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Fatal("timeout did not set a deadline")
	}
	x2 := experimentFlags{}
	ctx2, cancel2 := x2.runContext()
	defer cancel2()
	if _, ok := ctx2.Deadline(); ok {
		t.Fatal("deadline without -timeout")
	}
}

// TestExperimentFlagsSinks checks the one -emit opener behind both the
// local JSONL sink and the -submit event replay: a file path, "-" for
// stdout, or nothing.
func TestExperimentFlagsSinks(t *testing.T) {
	var buf strings.Builder
	path := filepath.Join(t.TempDir(), "ev.jsonl")
	for _, c := range []struct {
		emit   string
		stdout bool
		file   bool
	}{{emit: path, file: true}, {emit: "-", stdout: true}, {emit: ""}} {
		x := experimentFlags{emit: c.emit}
		w, closer, err := x.openEmit(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := w == io.Writer(&buf); got != c.stdout {
			t.Errorf("-emit %q: writer is stdout = %v", c.emit, got)
		}
		if got := w != nil && !c.stdout; got != c.file {
			t.Errorf("-emit %q: writer is a file = %v", c.emit, got)
		}
		if err := closer(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("-emit file not created: %v", err)
	}
}

// TestEveryKindBindsSharedSurface checks the flags every experiment
// binary must accept, whatever its kind.
func TestEveryKindBindsSharedSurface(t *testing.T) {
	shared := []string{"spec", "emit", "timeout", "submit", "telemetry", "parallel",
		"precision", "confidence", "max-reps", "arrival", "burst-ratio", "trace", "seed"}
	for _, kind := range run.Kinds() {
		if commands[kind].name == "" {
			t.Errorf("no binary runs %q experiments", kind)
			continue
		}
		fs, _, _ := newFlagSet(kind, run.NewExperiment(kind))
		for _, name := range shared {
			if fs.Lookup(name) == nil {
				t.Errorf("%s (%s) does not bind -%s", fs.Name(), kind, name)
			}
		}
	}
}

func TestAnalyzeSpecAtParallelOne(t *testing.T) {
	var out strings.Builder
	if err := Main(run.KindAnalyze, []string{"-spec", "../../testdata/experiments/analyze.json", "-parallel", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mean message latency") {
		t.Fatalf("no analysis report:\n%s", out.String())
	}
}

func TestPlanRejectsZeroReps(t *testing.T) {
	err := Main(run.KindPlan, []string{"-reps", "0", "-top", "0"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "need at least 1 replication") {
		t.Fatalf("-reps 0 not rejected as a replication count: %v", err)
	}
}

// TestPlanRepsSetsScenarioCheck runs the plan spec's scenario check with
// -reps 2 (the spec says 3) and counts the check's replications in the
// event stream: its fixed-schedule events carry no running estimate,
// the verify stage's adaptive ones do.
func TestPlanRepsSetsScenarioCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.jsonl")
	args := []string{"-spec", "../../testdata/experiments/plan.json", "-reps", "2",
		"-scenario", "../../docs/experiments/kill-largest.json", "-parallel", "1", "-emit", path}
	if err := Main(run.KindPlan, args, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checks := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if _, estimate := ev["mean_s"]; ev["event"] == "unit_finished" && !estimate {
			checks++
		}
	}
	if checks != 2 {
		t.Fatalf("scenario check ran %d replications, want -reps 2:\n%s", checks, data)
	}
}
