package main

import (
	"path/filepath"

	"bytes"
	"hmscs/internal/core"
	"hmscs/internal/network"
	"strings"
	"testing"
)

func TestRunFatTree(t *testing.T) {
	var out bytes.Buffer
	err := runMain([]string{"-topo", "fat-tree", "-n", "16", "-ports", "8",
		"-messages", "1500", "-warmup", "200", "-lambda", "5000", "-parallel", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"fat-tree", "mean end-to-end latency", "switches traversed", "abstraction"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("output missing %q:\n%s", frag, out.String())
		}
	}
}

func TestRunLinearArray(t *testing.T) {
	var out bytes.Buffer
	err := runMain([]string{"-topo", "linear-array", "-n", "24", "-ports", "8",
		"-messages", "1000", "-warmup", "100", "-tech", "FE", "-service", "exp"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "linear-array") {
		t.Errorf("output missing topology name:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	cases := [][]string{
		{"-topo", "torus"},
		{"-tech", "bogus"},
		{"-service", "pareto"},
		{"-n", "1"},
		{"-badflag"},
		{"-messages", "-5"},
		{"-messages", "-5", "-precision", "0.2"},
		{"-spec", filepath.Join("..", "..", "testdata", "experiments", "netsim-scenario.json"), "-reps", "-1"},
	}
	for _, args := range cases {
		if err := runMain(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunFromPlanConfig drives the simulator from a JSON system
// description (the hand-off format hmscs-plan emits): the selected
// network's technology, size, and offered load all come from the file.
func TestRunFromPlanConfig(t *testing.T) {
	cfg, err := core.PaperConfig(core.Case1, 4, 1024, network.NonBlocking)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sys.json")
	if err := core.SaveConfig(cfg, path); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = runMain([]string{"-config", path, "-net", "icn1", "-cluster", "2",
		"-messages", "800", "-warmup", "100"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// Case 1's ICN1 is Gigabit Ethernet over the cluster's 64 processors.
	for _, frag := range []string{"GigabitEthernet", "64 endpoints", "fat-tree"} {
		if !strings.Contains(s, frag) {
			t.Errorf("resolved header missing %q:\n%s", frag, s)
		}
	}
	// An empty -net value is rejected.
	if err := runMain([]string{"-config", path, "-net", "lan"}, &out); err == nil {
		t.Error("bad -net accepted")
	}
}
