package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hmscs/internal/run"
	"hmscs/internal/sim"
)

// wireGolden is a /dist/complete body answering two seeded units: a
// cluster-model replication with its latency sample, and a switch-level
// scenario replication with switch hops, slice sums and counts, and
// unnamed per-link centres.
var wireGolden = filepath.Join("testdata", "wire-result.json")

// goldenNetsimSpec is a short fat-tree timeline: a leaf switch fails with the
// drop policy and is repaired inside a 4 ms horizon.
const goldenNetsimSpec = `{
  "v": 1,
  "kind": "netsim",
  "workload": {"service": "det"},
  "run": {"seed": 11, "reps": 1},
  "scenario": {
    "horizon_s": 0.004,
    "slice_s": 0.001,
    "events": [
      {"t_s": 0.001, "action": "fail", "target": "switch:1", "policy": "drop"},
      {"t_s": 0.002, "action": "repair", "target": "switch:1"}
    ]
  },
  "net": {"topo": "fat-tree", "n": 8, "ports": 4, "switch_latency_us": 10, "tech": "GE", "lambda_per_s": 20000, "msg_bytes": 1024}
}`

// goldenResults runs the golden's two units.
func goldenResults(t *testing.T) []*sim.Result {
	t.Helper()
	simulate := run.NewExperiment(run.KindSimulate)
	simulate.System.Clusters = 2
	simulate.System.Total = 8
	simulate.Run.Seed = 5
	simulate.Run.Warmup = 20
	simulate.Run.Messages = 60
	netsim, err := run.Parse([]byte(goldenNetsimSpec))
	if err != nil {
		t.Fatal(err)
	}
	var out []*sim.Result
	for _, c := range []struct {
		e     *run.Experiment
		stage string
	}{{simulate, run.StageSim}, {netsim, run.StageNetsim}} {
		prog, err := run.NewProgram(c.e)
		if err != nil {
			t.Fatal(err)
		}
		st, err := prog.Stage(c.stage)
		if err != nil {
			t.Fatal(err)
		}
		cfg, opts, err := st.Unit(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		opts.RecordSample = c.stage == run.StageSim
		res, err := st.Engine.Run(context.Background(), 0, 0, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	if len(out[0].Sample) == 0 || len(out[0].Centers) == 0 {
		t.Fatal("cluster-model result carries no sample or centres")
	}
	if net := out[1]; net.SwitchHops.Count() == 0 || len(net.SliceCounts) == 0 || net.Dropped == 0 || net.Centers[0].Name != "" {
		t.Fatal("switch-level result carries no switch hops, slice bins or drops, or names its links")
	}
	return out
}

// TestWireResultGolden pins the result encoding of a completion body
// byte for byte against testdata/wire-result.json, and requires the file
// to decode into the same results bit for bit: a decoded body must
// re-encode to the file, which tells -0 from 0. Workers and coordinators
// of different builds exchange these bodies, so the file never changes.
func TestWireResultGolden(t *testing.T) {
	want, err := os.ReadFile(wireGolden)
	if err != nil {
		t.Fatal(err)
	}
	results := goldenResults(t)
	req := completeRequest{Token: "golden-token", Lease: "golden-lease"}
	for i, r := range results {
		req.Results = append(req.Results, unitOutcome{Unit: i, Result: r})
	}
	got, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("completion body differs from %s:\ngot  %.400s\nwant %.400s", wireGolden, got, want)
	}

	var back completeRequest
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != len(results) {
		t.Fatalf("decoded %d results, want %d", len(back.Results), len(results))
	}
	for i, r := range results {
		if dec := back.Results[i].Result; !reflect.DeepEqual(dec, r) {
			t.Errorf("result %d decodes differently:\ngot  %+v\nwant %+v", i, dec, r)
		}
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), want) {
		t.Error("the decoded body re-encodes differently")
	}
}
