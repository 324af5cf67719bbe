package netsim

import (
	"testing"

	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/scenario"
	"hmscs/internal/sim"
)

// windowCase is one measurement set-up TestEnginesMeasureAlike runs on
// both engines.
type windowCase struct {
	warmup, target int
	record         bool
	maxT           float64 // zero for no cap
	scenario       bool
}

// measuredRun is what TestEnginesMeasureAlike reads of either engine's
// result.
type measuredRun struct {
	count       int64
	sample      []float64
	sliceSums   []float64
	sliceCounts []int64
	timedOut    bool
}

// TestEnginesMeasureAlike pins the measurement window both engines share
// (sim.Window): a stationary run measures exactly its target unless its
// time cap fires first, a recorded sample holds one latency per measured
// message, only a scenario run bins its latencies (one pair per slice,
// counting every measured message), and a scenario run never times out.
func TestEnginesMeasureAlike(t *testing.T) {
	spec := &scenario.Spec{HorizonS: 0.05, Events: []scenario.Event{
		{TS: 0.01, Action: "fail", Target: "node:0"},
		{TS: 0.03, Action: "repair", Target: "node:0"},
	}}
	cases := map[string]windowCase{
		"no warm-up":          {target: 500},
		"no warm-up recorded": {target: 500, record: true},
		"warm-up":             {warmup: 300, target: 500},
		"warm-up recorded":    {warmup: 300, target: 500, record: true},
		"capped":              {warmup: 100, target: 1000000, record: true, maxT: 1e-3},
		"scenario":            {warmup: 300, target: 500, scenario: true},
		"scenario recorded":   {warmup: 300, target: 500, record: true, scenario: true},
	}
	engines := map[string]func(t *testing.T, w windowCase) measuredRun{
		"sim": func(t *testing.T, w windowCase) measuredRun {
			cfg, err := core.PaperConfig(core.Case1, 4, 1024, network.NonBlocking)
			if err != nil {
				t.Fatal(err)
			}
			o := sim.DefaultOptions()
			o.Seed, o.WarmupMessages, o.MeasuredMessages = 3, w.warmup, w.target
			o.RecordSample, o.MaxSimTime = w.record, w.maxT
			if w.scenario {
				if o.Scenario, err = scenario.CompileSim(spec, cfg); err != nil {
					t.Fatal(err)
				}
			}
			res, err := sim.Run(cfg, o)
			if err != nil {
				t.Fatal(err)
			}
			return measuredRun{res.Measured, res.Sample, res.SliceSums, res.SliceCounts, res.TimedOut}
		},
		"netsim": func(t *testing.T, w windowCase) measuredRun {
			n := buildFT(t, 16, 8)
			o := detOpts(w.warmup, w.target, 3)
			o.RecordSample, o.MaxSimTime = w.record, w.maxT
			if w.scenario {
				var err error
				if o.Scenario, err = scenario.CompileNet(spec, n.Topo()); err != nil {
					t.Fatal(err)
				}
			}
			res, err := n.Run(1000, 1024, o)
			if err != nil {
				t.Fatal(err)
			}
			return measuredRun{res.Latency.Count(), res.Sample, res.SliceSums, res.SliceCounts, res.TimedOut}
		},
	}
	for engine, run := range engines {
		for name, w := range cases {
			t.Run(engine+"/"+name, func(t *testing.T) {
				m := run(t, w)
				switch {
				case w.scenario && m.timedOut:
					t.Error("a scenario run reported TimedOut")
				case w.scenario && m.count == 0:
					t.Error("a scenario run measured nothing")
				case !w.scenario && !m.timedOut && m.count != int64(w.target):
					t.Errorf("measured %d messages without timing out, want %d", m.count, w.target)
				case m.timedOut && m.count >= int64(w.target):
					t.Errorf("timed out after measuring %d of %d messages", m.count, w.target)
				case w.maxT > 0 && !m.timedOut:
					t.Errorf("a %gs cap did not time out a %d-message run", w.maxT, w.target)
				}
				wantSample, wantSlices := 0, 0
				if w.record {
					wantSample = int(m.count)
				}
				if w.scenario {
					wantSlices = 20 // the default slice is a twentieth of the horizon
				}
				if len(m.sample) != wantSample {
					t.Errorf("%d latencies recorded for %d measured messages, want %d", len(m.sample), m.count, wantSample)
				}
				if len(m.sliceSums) != wantSlices || len(m.sliceCounts) != wantSlices {
					t.Errorf("%d slice sums and %d counts, want %d of each", len(m.sliceSums), len(m.sliceCounts), wantSlices)
				}
				var binned int64
				for _, n := range m.sliceCounts {
					binned += n
				}
				if w.scenario && binned != m.count {
					t.Errorf("%d latencies binned for %d measured messages", binned, m.count)
				}
			})
		}
	}
}
