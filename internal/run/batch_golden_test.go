package run

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hmscs/internal/scenario"
)

// batchGoldenCases are the batch paths testdata/golden-batches.txt pins:
// a dynamic sweep and a plan with its scenario check, both under the
// documented kill-largest timeline, and the figure kind's two local
// extras (ablation and future work) in fixed and adaptive mode.
var batchGoldenCases = []struct {
	name, spec string
	timeline   bool
	edit       func(e *Experiment)
}{
	{"sweep-dynamic", "sweep.json", true, nil},
	{"plan-scenario", "plan.json", true, nil},
	{"figure-extras-fixed", "figure.json", false, func(e *Experiment) {
		e.Figure.What = "ablation,future"
		e.Run.Reps = 2
		e.Run.Messages = 1000
	}},
	{"figure-future-adaptive", "figure.json", false, func(e *Experiment) {
		e.Figure.What = "future"
		e.Precision.RelWidth = 0.1
		e.Precision.MaxReps = 6
	}},
}

// loadKillLargest reads docs/experiments/kill-largest.json, the timeline
// the dynamic batch cases run under.
func loadKillLargest(t *testing.T) *scenario.Spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "experiments", "kill-largest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s scenario.Spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

// renderBatchGolden renders every batchGoldenCases report at the given
// parallelism.
func renderBatchGolden(t *testing.T, parallel int) string {
	t.Helper()
	var got strings.Builder
	for _, c := range batchGoldenCases {
		e, err := Load(filepath.Join("..", "..", "testdata", "experiments", c.spec))
		if err != nil {
			t.Fatal(err)
		}
		if c.timeline {
			e.Scenario = loadKillLargest(t)
		}
		if c.edit != nil {
			c.edit(e)
		}
		var md strings.Builder
		if _, err := Run(context.Background(), e, Options{
			Parallelism: parallel,
			Sinks:       []Sink{NewMarkdownSink(&md)},
		}); err != nil {
			t.Fatalf("%s at parallelism %d: %v", c.name, parallel, err)
		}
		fmt.Fprintf(&got, "=== %s ===\n%s", c.name, md.String())
	}
	return got.String()
}

// TestBatchGolden pins the batch folds that no other golden reaches byte
// for byte against testdata/golden-batches.txt at parallelism 1, 2 and
// 4: a dynamic sweep's per-point transient fold, the plan's scenario
// check, and the figure kind's fixed and adaptive extras.
func TestBatchGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden-batches.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 2, 4} {
		if got := renderBatchGolden(t, parallel); got != string(want) {
			t.Errorf("parallelism %d: batch reports differ from testdata/golden-batches.txt:\n%s", parallel, got)
		}
	}
}
