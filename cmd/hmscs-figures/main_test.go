package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestFiguresTables(t *testing.T) {
	var out bytes.Buffer
	if err := runMain([]string{"-what", "tables"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"Table 1", "Table 2", "GigabitEthernet", "Switch Latency"} {
		if !strings.Contains(s, frag) {
			t.Errorf("tables output missing %q", frag)
		}
	}
}

func TestFiguresFastSingleFigure(t *testing.T) {
	var out bytes.Buffer
	if err := runMain([]string{"-what", "fig5", "-fast", "-format", "table"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Figure 5") || !strings.Contains(s, "Case-2") {
		t.Errorf("figure header missing:\n%s", s)
	}
	// All nine cluster counts present.
	for _, c := range []string{"| 1 |", "| 16 |", "| 256 |"} {
		if !strings.Contains(s, c) {
			t.Errorf("row %q missing", c)
		}
	}
}

func TestFiguresFastPlotAndCSV(t *testing.T) {
	var out bytes.Buffer
	if err := runMain([]string{"-what", "fig6", "-fast", "-format", "plot"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "legend:") {
		t.Error("plot legend missing")
	}
	out.Reset()
	if err := runMain([]string{"-what", "fig7", "-fast", "-format", "csv"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "figure,scenario,arch") {
		t.Error("csv header missing")
	}
}

func TestFiguresRatioFast(t *testing.T) {
	var out bytes.Buffer
	if err := runMain([]string{"-what", "ratio", "-fast"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ratio range") {
		t.Errorf("ratio output missing:\n%s", out.String())
	}
}

func TestFiguresAblationFast(t *testing.T) {
	var out bytes.Buffer
	if err := runMain([]string{"-what", "ablation", "-fast"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "exact MVA") {
		t.Errorf("ablation output missing MVA column:\n%s", s)
	}
	if !strings.Contains(s, " - |") {
		t.Error("fast mode should dash out simulation columns")
	}
}

func TestFiguresWithSimulationReduced(t *testing.T) {
	var out bytes.Buffer
	err := runMain([]string{"-what", "fig4", "-reps", "1", "-messages", "800"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "MAPE") {
		t.Errorf("MAPE summary missing:\n%s", out.String())
	}
}

func TestFiguresBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := runMain([]string{"-bogus"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
	// An explicit -reps 0 must not silently run the default 3.
	if err := runMain([]string{"-what", "fig4", "-reps", "0", "-messages", "800"}, &out); err == nil {
		t.Error("-reps 0 accepted")
	}
	// Unknown -what silently produces nothing but is not an error; check
	// that at least no output is produced.
	out.Reset()
	if err := runMain([]string{"-what", "fig9"}, &out); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("unknown -what produced output: %q", out.String())
	}
}

func TestFiguresFutureWork(t *testing.T) {
	var out bytes.Buffer
	if err := runMain([]string{"-what", "future", "-reps", "1", "-messages", "1500"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"Cluster-of-Clusters", "multiclass closed model", "simulation"} {
		if !strings.Contains(s, frag) {
			t.Errorf("future-work output missing %q:\n%s", frag, s)
		}
	}
	out.Reset()
	if err := runMain([]string{"-what", "future", "-fast"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "simulation (") {
		t.Error("fast mode should skip the simulation row")
	}
}
