package run

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hmscs/internal/sim"
)

// netsimGoldenCases are the three netsim modes testdata/golden-netsim.txt
// pins: a stationary fixed run, a fault-timeline scenario over several
// replications, and an adaptive precision run.
var netsimGoldenCases = []struct {
	name, spec string
	relWidth   float64
}{
	{"fixed", "netsim.json", 0},
	{"scenario", "netsim-scenario.json", 0},
	{"precision", "netsim.json", 0.05},
}

// loadNetsimSpec loads a checked-in netsim experiment, optionally
// switched to precision mode.
func loadNetsimSpec(t *testing.T, name string, relWidth float64) *Experiment {
	t.Helper()
	e, err := Load(filepath.Join("..", "..", "testdata", "experiments", name))
	if err != nil {
		t.Fatal(err)
	}
	if relWidth > 0 {
		e.Precision.RelWidth = relWidth
	}
	return e
}

// TestNetsimGolden pins the switch-level reports byte for byte against
// testdata/golden-netsim.txt at parallelism 1, 2 and 4: the replications
// run through the batch driver's worker pool, and neither the pool size
// nor completion order may move a digit.
func TestNetsimGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden-netsim.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 2, 4} {
		var got strings.Builder
		for _, c := range netsimGoldenCases {
			var md strings.Builder
			_, err := Run(context.Background(), loadNetsimSpec(t, c.spec, c.relWidth), Options{
				Parallelism: parallel,
				Sinks:       []Sink{NewMarkdownSink(&md)},
			})
			if err != nil {
				t.Fatalf("%s at parallelism %d: %v", c.name, parallel, err)
			}
			fmt.Fprintf(&got, "=== %s ===\n%s", c.name, md.String())
		}
		if got.String() != string(want) {
			t.Errorf("parallelism %d: netsim reports differ from testdata/golden-netsim.txt:\n%s", parallel, got.String())
		}
	}
}

// TestNetsimIgnoresOpenLoop: the switch-level engine is closed-loop
// only, so a netsim spec asking for run.open runs closed-loop in every
// mode, and its report is byte-identical to the same spec without it.
func TestNetsimIgnoresOpenLoop(t *testing.T) {
	for _, c := range netsimGoldenCases {
		var reports [2]string
		for i, open := range []bool{false, true} {
			e := loadNetsimSpec(t, c.spec, c.relWidth)
			e.Run.Open = open
			var md strings.Builder
			if _, err := Run(context.Background(), e, Options{Sinks: []Sink{NewMarkdownSink(&md)}}); err != nil {
				t.Fatalf("%s with run.open %v: %v", c.name, open, err)
			}
			reports[i] = md.String()
		}
		if reports[0] != reports[1] {
			t.Errorf("%s: run.open moved the report:\n%s\nvs\n%s", c.name, reports[0], reports[1])
		}
	}
}

// TestNetsimPrecisionParallelBitIdentical pins the adaptive schedule: a
// target tight enough to need more than the pilot round stops at the
// same replication count with the same half-width, bit for bit, at
// parallelism 1 and 4.
func TestNetsimPrecisionParallelBitIdentical(t *testing.T) {
	var reps []int
	var half []uint64
	for _, parallel := range []int{1, 4} {
		out, err := Run(context.Background(), loadNetsimSpec(t, "netsim.json", 0.003), Options{Parallelism: parallel})
		if err != nil {
			t.Fatal(err)
		}
		est := out.Net.Est
		if est == nil {
			t.Fatal("precision run reported no estimate")
		}
		reps = append(reps, est.Reps)
		half = append(half, math.Float64bits(est.HalfWidth))
	}
	if reps[0] <= 4 {
		t.Fatalf("target met by the pilot round (%d replications); tighten it so the schedule extends", reps[0])
	}
	if reps[0] != reps[1] || half[0] != half[1] {
		t.Fatalf("parallelism 1 vs 4: reps %d vs %d, half-width bits %x vs %x", reps[0], reps[1], half[0], half[1])
	}
}

// TestNetsimPrecisionHugeMaxReps: the replication cap is user input, and
// nothing is sized by it up front, so a netsim precision run whose cap is
// far beyond what memory could hold still stops where its target is met,
// at the replication count and half-width the default cap gives.
func TestNetsimPrecisionHugeMaxReps(t *testing.T) {
	var ests []sim.Estimate
	for _, maxReps := range []int{0, 100_000_000_000} {
		e := loadNetsimSpec(t, "netsim.json", 0.05)
		e.Precision.MaxReps = maxReps
		out, err := Run(context.Background(), e, Options{Parallelism: 2})
		if err != nil {
			t.Fatalf("max_reps %d: %v", maxReps, err)
		}
		if out.Net.Est == nil || !out.Net.Est.Converged {
			t.Fatalf("max_reps %d: estimate %+v, want a converged one", maxReps, out.Net.Est)
		}
		ests = append(ests, *out.Net.Est)
	}
	if ests[0].Reps != ests[1].Reps || ests[0].HalfWidth != ests[1].HalfWidth {
		t.Errorf("estimate moved with the cap: %+v vs %+v", ests[0], ests[1])
	}
}
