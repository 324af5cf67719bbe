package run

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hmscs/internal/scenario"
)

// scenarioGoldenTimelines are the three in-flight policies
// testdata/golden-scenarios.txt pins: the checked-in drop timeline on
// the largest cluster, the same timeline under requeue, and a reroute
// outage of cluster 0's ICN1.
var scenarioGoldenTimelines = []struct {
	name   string
	events []scenario.Event
}{
	{"drop", []scenario.Event{
		{TS: 0.03, Action: scenario.ActionFail, Target: "cluster:largest", Policy: "drop"},
		{TS: 0.06, Action: scenario.ActionRepair, Target: "cluster:largest"},
	}},
	{"requeue", []scenario.Event{
		{TS: 0.03, Action: scenario.ActionFail, Target: "cluster:largest", Policy: "requeue"},
		{TS: 0.06, Action: scenario.ActionRepair, Target: "cluster:largest"},
	}},
	{"reroute", []scenario.Event{
		{TS: 0.03, Action: scenario.ActionFail, Target: "icn1:0", Policy: "reroute"},
		{TS: 0.06, Action: scenario.ActionRepair, Target: "icn1:0"},
	}},
}

// renderScenarioGolden renders every pinned variant of
// testdata/experiments/simulate-scenario.json — each timeline under
// exponential and deterministic service and Poisson and periodic
// arrivals — at the given parallelism.
func renderScenarioGolden(t *testing.T, parallel int) string {
	t.Helper()
	var got strings.Builder
	for _, tl := range scenarioGoldenTimelines {
		for _, service := range []string{"exp", "det"} {
			for _, arrival := range []string{"poisson", "periodic"} {
				e, err := Load(filepath.Join("..", "..", "testdata", "experiments", "simulate-scenario.json"))
				if err != nil {
					t.Fatal(err)
				}
				e.Scenario.Events = tl.events
				e.Workload.Service = service
				e.Workload.Arrival = arrival
				if err := e.Validate(); err != nil {
					t.Fatal(err)
				}
				var md strings.Builder
				if _, err := Run(context.Background(), e, Options{
					Parallelism: parallel,
					Sinks:       []Sink{NewMarkdownSink(&md)},
				}); err != nil {
					t.Fatalf("%s/%s/%s at parallelism %d: %v", tl.name, service, arrival, parallel, err)
				}
				fmt.Fprintf(&got, "=== %s service=%s arrival=%s ===\n%s", tl.name, service, arrival, md.String())
			}
		}
	}
	return got.String()
}

// TestScenarioGolden pins the cluster simulator's scenario reports byte
// for byte against testdata/golden-scenarios.txt at parallelism 1, 2
// and 4: failures, repairs, drops, requeues and reroutes at event-loop
// granularity, with same-instant ties forced by deterministic service
// and periodic arrivals.
func TestScenarioGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden-scenarios.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 2, 4} {
		if got := renderScenarioGolden(t, parallel); got != string(want) {
			t.Errorf("parallelism %d: scenario reports differ from testdata/golden-scenarios.txt:\n%s", parallel, got)
		}
	}
}
