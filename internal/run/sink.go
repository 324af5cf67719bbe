package run

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"hmscs/internal/progress"
	"hmscs/internal/report"
)

// Sink consumes an experiment's output stream: the serialised progress
// events while units run, then the final Outcome. Implementations decide
// what to keep — the markdown sink renders only the outcome, the JSONL
// sink streams everything. A sink error aborts the run.
type Sink interface {
	// Event receives one progress event. The Runner serialises calls.
	Event(progress.Event) error
	// Result receives the final outcome once, after the run completes.
	Result(*Outcome) error
}

// markdownSink renders the outcome as the binaries' human-readable
// report (markdown tables, ASCII plots); progress events are dropped.
type markdownSink struct{ w io.Writer }

// NewMarkdownSink returns the human-output sink: on Result it writes the
// same byte-for-byte report the pre-spec binaries printed to stdout.
func NewMarkdownSink(w io.Writer) Sink { return &markdownSink{w: w} }

func (s *markdownSink) Event(progress.Event) error { return nil }
func (s *markdownSink) Result(o *Outcome) error    { return RenderMarkdown(s.w, o) }

// csvSink renders the outcome's tabular form; progress events are
// dropped. Figure outcomes emit report.FigureCSV per requested figure,
// plan outcomes report.PlanCSV, sweep outcomes one row per point;
// scalar kinds (analyze, simulate, netsim) emit key,value rows of their
// headline metrics.
type csvSink struct{ w io.Writer }

// NewCSVSink returns the tabular sink.
func NewCSVSink(w io.Writer) Sink { return &csvSink{w: w} }

func (s *csvSink) Event(progress.Event) error { return nil }

func (s *csvSink) Result(o *Outcome) error {
	switch o.Kind {
	case KindFigure:
		for i, n := range o.Figure.Nums {
			if o.Figure.PrintFig[n] {
				if _, err := io.WriteString(s.w, report.FigureCSV(o.Figure.Results[i])); err != nil {
					return err
				}
			}
		}
		return nil
	case KindPlan:
		_, err := io.WriteString(s.w, report.PlanCSV(o.Plan.Frontier, o.Plan.Verified))
		return err
	case KindSweep:
		sw := o.Sweep
		header := "var,value,analytic_ms,simulated_ms,ci_ms,reps,ess"
		if sw.Scenario != nil {
			header += ",recovery_s,dropped,rerouted"
		}
		if _, err := fmt.Fprintf(s.w, "%s\n", header); err != nil {
			return err
		}
		for i, label := range sw.Labels {
			r := sw.Results[i]
			line := fmt.Sprintf("%s,%s,%.6f,%.6f,%.6f,%d,%.1f",
				sw.Var, label, r.Analytic*1e3, r.Simulated*1e3,
				r.Stat.HalfWidth*1e3, r.Stat.Reps, r.Stat.ESS)
			if sw.Scenario != nil {
				if d := r.Dynamic; d != nil {
					line += fmt.Sprintf(",%v,%d,%d", recoveryValue(d.RecoveryS), d.Dropped, d.Rerouted)
				} else {
					line += ",-,0,0"
				}
			}
			if _, err := fmt.Fprintf(s.w, "%s\n", line); err != nil {
				return err
			}
		}
		return nil
	}
	// Scalar kinds: key,value rows of the JSONL summary's fields.
	for _, kv := range o.summaryRows() {
		if _, err := fmt.Fprintf(s.w, "%s,%v\n", kv[0], kv[1]); err != nil {
			return err
		}
	}
	return nil
}

// jsonlSink streams one JSON object per line: every progress event as it
// happens, a telemetry summary, then a final outcome summary — the
// machine-readable feed behind the shared -emit flag, and the shape a job
// queue or server mode would consume.
//
// Each line carries a monotonic per-stream "seq" and a wall-clock "ts"
// (RFC 3339, UTC). Both are stamped here, in the sink, so the engines
// stay clock-free (DESIGN.md §12); consumers comparing streams for
// content equality should strip both — the same run executed at a
// different parallelism delivers the same events in a different order,
// so seq is ordering metadata, not content.
type jsonlSink struct {
	enc *json.Encoder
	seq int64
	now func() time.Time // injectable for tests; defaults to time.Now
}

// NewJSONLSink returns the streaming sink.
func NewJSONLSink(w io.Writer) Sink {
	return &jsonlSink{enc: json.NewEncoder(w), now: time.Now}
}

// stamp adds the per-stream sequence number and wall-clock timestamp.
func (s *jsonlSink) stamp(rec map[string]any) map[string]any {
	rec["seq"] = s.seq
	s.seq++
	rec["ts"] = s.now().UTC().Format(time.RFC3339Nano)
	return rec
}

func (s *jsonlSink) Event(ev progress.Event) error {
	rec := map[string]any{
		"type":  "event",
		"event": ev.Kind.String(),
		"unit":  ev.Unit,
		"units": ev.Units,
		"rep":   ev.Rep,
	}
	if ev.Label != "" {
		rec["label"] = ev.Label
	}
	if ev.Mean != 0 {
		rec["mean_s"] = ev.Mean
	}
	if ev.RelWidth != 0 {
		rec["rel_width"] = ev.RelWidth
	}
	return s.enc.Encode(s.stamp(rec))
}

func (s *jsonlSink) Result(o *Outcome) error {
	// Telemetry line first, then the outcome (consumers treat the
	// outcome as end-of-stream). Only parallelism-invariant fields are
	// emitted, so the stream stays byte-comparable across -parallel
	// settings.
	if t := o.Telemetry; t != nil {
		trec := map[string]any{
			"type":         "telemetry",
			"generated":    t.Sim.Generated,
			"replications": t.Replications,
		}
		if err := s.enc.Encode(s.stamp(trec)); err != nil {
			return err
		}
	}
	rec := map[string]any{
		"type": "outcome",
		"kind": string(o.Kind),
		"v":    o.Spec.V,
	}
	for _, kv := range o.summaryRows() {
		rec[kv[0].(string)] = kv[1]
	}
	return s.enc.Encode(s.stamp(rec))
}

// summaryRows flattens the outcome's headline numbers into ordered
// key/value pairs — the shared feed of the CSV and JSONL sinks.
func (o *Outcome) summaryRows() [][2]any {
	var rows [][2]any
	add := func(k string, v any) { rows = append(rows, [2]any{k, v}) }
	addScenario := func(sc *ScenarioOutcome) {
		if sc == nil {
			return
		}
		add("recovery_s", recoveryValue(sc.RecoveryS))
		add("dropped", sc.Dropped)
		add("rerouted", sc.Rerouted)
		add("transient_slices", len(sc.Series.Slices))
	}
	switch o.Kind {
	case KindAnalyze:
		a := o.Analyze
		add("mean_latency_s", a.Result.MeanLatency)
		add("arrival", a.Arrival.Name())
		add("arrival_scv", a.SCV)
		add("saturated", a.Result.Saturated)
		if a.MVA != nil {
			add("mva_latency_s", a.MVA.MeanLatency)
		}
		if a.Check != nil {
			add("sim_latency_s", a.Check.Estimate.Mean)
			add("sim_reps", a.Check.Estimate.Reps)
		}
	case KindSimulate:
		s := o.Simulate
		add("mean_latency_s", s.Agg.MeanLatency)
		add("throughput_msg_s", s.Agg.Throughput)
		add("bottleneck_util", s.Agg.BottleneckUtilization)
		if s.PrecRes != nil {
			add("reps", s.PrecRes.Estimate.Reps)
			add("converged", s.PrecRes.Estimate.Converged)
		} else {
			add("reps", o.Spec.Run.Reps)
		}
		if s.Analytic != nil {
			add("analytic_latency_s", s.Analytic.MeanLatency)
		}
		addScenario(s.Scenario)
	case KindNetsim:
		n := o.Net
		if n.Est != nil {
			add("mean_latency_s", n.Est.Mean)
			add("reps", n.Est.Reps)
		} else {
			add("mean_latency_s", n.Res.Latency.Mean())
		}
		add("throughput_msg_s", n.Res.Throughput)
		add("mean_switch_hops", n.Res.SwitchHops.Mean())
		add("contention_free_s", n.ContentionFree)
		addScenario(n.Scenario)
	case KindFigure:
		add("figures", len(o.Figure.Nums))
	case KindSweep:
		add("var", o.Sweep.Var)
		add("points", len(o.Sweep.Results))
		if o.Sweep.Scenario != nil {
			add("dynamic", true)
		}
	case KindPlan:
		p := o.Plan
		add("screened", p.Screened)
		add("feasible", p.Feasible)
		add("frontier", len(p.Frontier))
		add("verified", len(p.Verified))
		if len(p.Verified) > 0 && p.Verified[0].ScenarioChecked {
			ok := 0
			for _, v := range p.Verified {
				if v.RecoveryOK {
					ok++
				}
			}
			add("recovery_ok", ok)
		}
	}
	return rows
}

// recoveryValue is the JSON/CSV-safe form of a recovery time — JSON has
// no NaN or Inf, so undefined recovery encodes as "undefined" and a
// never-recovered horizon as "never".
func recoveryValue(r float64) any {
	switch {
	case math.IsNaN(r):
		return "undefined"
	case math.IsInf(r, 1):
		return "never"
	}
	return r
}
