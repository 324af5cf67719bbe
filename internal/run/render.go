package run

import (
	"fmt"
	"io"
	"math"

	"hmscs/internal/core"
	"hmscs/internal/netsim"
	"hmscs/internal/network"
	"hmscs/internal/report"
	"hmscs/internal/stats"
	"hmscs/internal/sweep"
)

// Ms formats seconds as milliseconds with 3 decimals.
func Ms(sec float64) string { return fmt.Sprintf("%.3f ms", sec*1e3) }

// RenderMarkdown writes the outcome's human-readable report — markdown
// tables, ASCII plots, and the same byte-for-byte output the pre-spec
// binaries printed. It is the markdown sink's rendering.
func RenderMarkdown(w io.Writer, o *Outcome) error {
	switch o.Kind {
	case KindAnalyze:
		return renderAnalyze(w, o)
	case KindSimulate:
		return renderSimulate(w, o)
	case KindNetsim:
		return renderNetsim(w, o)
	case KindFigure:
		return renderFigure(w, o)
	case KindSweep:
		return renderSweep(w, o)
	case KindPlan:
		return renderPlan(w, o)
	}
	return fmt.Errorf("run: no renderer for kind %q", o.Kind)
}

func renderAnalyze(w io.Writer, o *Outcome) error {
	a := o.Analyze
	res := a.Result
	fmt.Fprintln(w, a.Cfg.String())
	rows := [][2]string{
		{"mean message latency", Ms(res.MeanLatency)},
		{"arrival process", fmt.Sprintf("%s (interarrival SCV %.3g)", a.Arrival.Name(), a.SCV)},
		{"out-of-cluster probability P", fmt.Sprintf("%.4f", res.P)},
		{"effective-rate scale (eq. 7)", fmt.Sprintf("%.4f", res.Scale)},
		{"blocked processors L (eq. 6)", fmt.Sprintf("%.2f", res.TotalWaiting)},
		{"saturated at raw rates", fmt.Sprintf("%v", res.Saturated)},
	}
	b := res.Bottleneck()
	rows = append(rows, [2]string{"bottleneck centre",
		fmt.Sprintf("%v[%d] at utilisation %.3f", b.Kind, b.Cluster, b.Rho)})
	fmt.Fprint(w, report.Table("analytical model (paper eq. 1-21)", rows))

	if o.Spec.Analyze.Verbose {
		fmt.Fprintln(w, "per-centre metrics:")
		for _, c := range res.Centers {
			fmt.Fprintf(w, "  %-9s cluster=%-3d lambda=%10.1f/s  mu=%10.1f/s  rho=%.3f  W=%s\n",
				c.Kind, c.Cluster, c.Lambda, c.Mu, c.Rho, Ms(c.W))
		}
	}

	if a.MVA != nil {
		m := a.MVA
		fmt.Fprint(w, report.Table("exact MVA cross-check (closed network)", [][2]string{
			{"mean message latency", Ms(m.MeanLatency)},
			{"system throughput", fmt.Sprintf("%.1f msg/s", m.Throughput)},
			{"effective per-processor rate", fmt.Sprintf("%.2f msg/s", m.EffectiveLambda)},
			{"bottleneck utilisation", fmt.Sprintf("%.3f", m.BottleneckUtilization)},
		}))
	}

	if a.Check != nil {
		e := a.Check.Estimate
		rel := stats.RelError(res.MeanLatency, e.Mean)
		rows := [][2]string{
			{"simulated latency", fmt.Sprintf("%s ± %s (%.0f%% CI, %d adaptive reps)",
				Ms(e.Mean), Ms(e.HalfWidth), e.Confidence*100, e.Reps)},
			{"model relative error", fmt.Sprintf("%.1f%%", rel*100)},
			{"model inside CI", fmt.Sprintf("%v", math.Abs(res.MeanLatency-e.Mean) <= e.HalfWidth)},
		}
		if !e.Converged {
			rows = append(rows, [2]string{"warning",
				fmt.Sprintf("precision target not met within -max-reps %d", a.Prec.MaxReps)})
		}
		fmt.Fprint(w, report.Table("simulation check (adaptive stopping)", rows))
	}
	return nil
}

func renderSimulate(w io.Writer, o *Outcome) error {
	s := o.Simulate
	fmt.Fprintln(w, s.Cfg.String())
	agg := s.Agg
	var rows [][2]string
	if s.Prec != nil {
		res := s.PrecRes
		e := res.Estimate
		rows = [][2]string{
			{"mean message latency", Ms(e.Mean)},
			{fmt.Sprintf("%.0f%% CI half-width", e.Confidence*100),
				fmt.Sprintf("%s (±%.2f%%)", Ms(e.HalfWidth), e.RelHalfWidth()*100)},
			{"replications used", fmt.Sprintf("%d (adaptive, target ±%.2g%%)", e.Reps, s.Prec.RelWidth*100)},
			{"effective sample size", fmt.Sprintf("%.0f", e.ESS)},
			{"warmup deleted (MSER-5)", fmt.Sprintf("%.1f%% of each replication", res.TruncatedFrac*100)},
			{"messages simulated", fmt.Sprintf("%d", res.TotalGenerated)},
		}
		if !e.Converged {
			rows = append(rows, [2]string{"warning",
				fmt.Sprintf("precision target not met within -max-reps %d", s.Prec.MaxReps)})
		}
		if res.TruncationSuspect > 0 {
			rows = append(rows, [2]string{"warning",
				fmt.Sprintf("%d replication(s) too short to separate transient from steady state; raise -messages", res.TruncationSuspect)})
		}
	} else {
		window := fmt.Sprintf("%d messages", s.Opts.MeasuredMessages)
		if s.Scenario != nil {
			window = fmt.Sprintf("%g s horizon", s.Scenario.Spec.HorizonS)
		}
		rows = [][2]string{
			{"mean message latency", Ms(agg.MeanLatency)},
			{"95% CI half-width", Ms(agg.CI95)},
			{"replications", fmt.Sprintf("%d x %s", o.Spec.Run.Reps, window)},
		}
	}
	scv := s.Opts.Arrival.SCV()
	rows = append(rows,
		[2]string{"arrival process", fmt.Sprintf("%s (interarrival SCV %.3g)", s.Opts.Arrival.Name(), scv)},
		[2]string{"system throughput", fmt.Sprintf("%.1f msg/s", agg.Throughput)},
		[2]string{"effective per-processor rate", fmt.Sprintf("%.2f msg/s", agg.EffectiveLambda)},
		[2]string{"bottleneck utilisation", fmt.Sprintf("%.3f", agg.BottleneckUtilization)},
	)
	if agg.AnyTimedOut {
		rows = append(rows, [2]string{"warning", "at least one replication hit the time limit"})
	}
	fmt.Fprint(w, report.Table("simulation", rows))
	if s.Scenario != nil {
		renderScenario(w, s.Scenario)
	}

	if o.Spec.Simulate.Verbose {
		fmt.Fprintln(w, "per-centre statistics (replication 1):")
		for _, c := range s.One.Centers {
			fmt.Fprintf(w, "  %-9s util=%.3f  meanQ=%7.2f  maxQ=%6.0f  served=%d\n",
				c.Name, c.Utilization, c.MeanQueueLength, c.MaxQueueLength, c.Served)
		}
	}
	if o.Spec.Simulate.TraceOut != "" {
		fmt.Fprintf(w, "trace: %d events written to %s (%d dropped)\n",
			s.Trace.Len(), o.Spec.Simulate.TraceOut, s.Trace.Dropped())
		fmt.Fprintln(w, "per-hop time breakdown (queue + service):")
		for _, h := range s.Trace.HopBreakdown() {
			fmt.Fprintf(w, "  %-9s n=%-7d mean=%s max=%s\n",
				h.Where, h.Count, Ms(h.Mean), Ms(h.Max))
		}
	}

	if s.Analytic != nil {
		rel := stats.RelError(s.Analytic.MeanLatency, agg.MeanLatency)
		fmt.Fprint(w, report.Table("model vs simulation", [][2]string{
			{s.ModelLabel, Ms(s.Analytic.MeanLatency)},
			{"relative error", fmt.Sprintf("%.1f%%", rel*100)},
		}))
	}
	return nil
}

func renderNetsim(w io.Writer, o *Outcome) error {
	n := o.Net
	exp := n.Exp
	fmt.Fprintf(w, "%s: %d endpoints, %d-port switches, %s, λ=%.6g msg/s, M=%dB, %s arrivals\n",
		exp.Topo, exp.N, exp.Ports, exp.Tech.Name, exp.Lambda, exp.MsgBytes, exp.Arrival.Name())

	res := n.Res
	var rows [][2]string
	if n.Est != nil {
		est := *n.Est
		rows = [][2]string{
			{"mean end-to-end latency", Ms(est.Mean)},
			{fmt.Sprintf("latency %.0f%% CI half-width", est.Confidence*100),
				fmt.Sprintf("%s (±%.2f%%)", Ms(est.HalfWidth), est.RelHalfWidth()*100)},
			{"replications used", fmt.Sprintf("%d (adaptive, target ±%.2g%%)", est.Reps, n.Prec.RelWidth*100)},
			{"effective sample size", fmt.Sprintf("%.0f", est.ESS)},
		}
		if !est.Converged {
			rows = append(rows, [2]string{"warning",
				fmt.Sprintf("precision target not met within -max-reps %d", n.Prec.MaxReps)})
		}
	} else {
		rows = [][2]string{
			{"mean end-to-end latency", Ms(res.Latency.Mean())},
			{"latency 95% CI (per-msg)", Ms(res.Latency.CI(0.95))},
		}
	}
	host, fabric := netsim.LinkUtilization(res, exp.N)
	rows = append(rows,
		[2]string{"mean switches traversed", fmt.Sprintf("%.3f", res.SwitchHops.Mean())},
		[2]string{"throughput", fmt.Sprintf("%.1f msg/s", res.Throughput)},
		[2]string{"max host-link utilisation", fmt.Sprintf("%.3f", host)},
		[2]string{"max fabric-link utilisation", fmt.Sprintf("%.3f", fabric)},
		[2]string{"contention-free reference", Ms(n.ContentionFree)},
	)
	if res.TimedOut {
		rows = append(rows, [2]string{"warning", "run hit the time limit"})
	}
	fmt.Fprint(w, report.Table("switch-level simulation", rows))
	if n.Scenario != nil {
		renderScenario(w, n.Scenario)
	}

	abstraction := "unstable at this throughput"
	if !n.ModelUnstable {
		abstraction = Ms(n.ModelSojourn)
	}
	fmt.Fprint(w, report.Table("paper's single-server abstraction (same offered throughput)", [][2]string{
		{"eq. 11/21 service time", Ms(n.ModelServiceTime)},
		{"M/M/1 sojourn at measured throughput", abstraction},
	}))
	return nil
}

func renderFigure(w io.Writer, o *Outcome) error {
	f := o.Figure
	if f.Tables {
		renderPaperTables(w)
	}
	results := map[int]*sweep.FigureResult{}
	for i, n := range f.Nums {
		results[n] = f.Results[i]
		if f.PrintFig[n] {
			renderOneFigure(w, f.Results[i], o.Spec.Figure.Format, o.Spec.Figure.Fast)
		}
	}
	if f.Ratio {
		if err := renderRatios(w, results, o.Spec.Figure.Fast); err != nil {
			return err
		}
	}
	if f.Ablation != nil {
		renderAblation(w, f.Ablation)
	}
	if f.Future != nil {
		renderFutureWork(w, f.Future)
	}
	return nil
}

func renderPaperTables(w io.Writer) {
	fmt.Fprintln(w, "### Table 1 — Two Scenarios of Communication Networks")
	fmt.Fprintln(w, "| Case | ICN1 | ECN1 and ICN2 |")
	fmt.Fprintln(w, "|---|---|---|")
	for _, s := range []core.Scenario{core.Case1, core.Case2} {
		icn1, ecn, err := s.Technologies()
		if err != nil {
			panic(err) // both cases are statically valid
		}
		fmt.Fprintf(w, "| %s | %s | %s |\n", s, icn1.Name, ecn.Name)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "### Table 2 — Model Parameters")
	fmt.Fprintln(w, "| Item | Quantity | Unit |")
	fmt.Fprintln(w, "|---|---:|---|")
	ge, fe := network.GigabitEthernet, network.FastEthernet
	fmt.Fprintf(w, "| GE Latency | %.0f | µs |\n", ge.Latency*1e6)
	fmt.Fprintf(w, "| GE Bandwidth | %.0f | MB/s |\n", ge.Bandwidth/1e6)
	fmt.Fprintf(w, "| FE Latency | %.0f | µs |\n", fe.Latency*1e6)
	fmt.Fprintf(w, "| FE Bandwidth | %.1f | MB/s |\n", fe.Bandwidth/1e6)
	fmt.Fprintf(w, "| # of Ports in Switch Fabric (Pr) | %d | Port |\n", network.PaperSwitch.Ports)
	fmt.Fprintf(w, "| Switch Latency | %.0f | µs |\n", network.PaperSwitch.Latency*1e6)
	fmt.Fprintf(w, "| Msg. Generation rate (λ) | %.2f | /ms (see DESIGN.md §2) |\n", core.PaperLambda/1e3)
	fmt.Fprintln(w)
}

func renderOneFigure(w io.Writer, res *sweep.FigureResult, format string, fast bool) {
	if format == "table" || format == "all" {
		fmt.Fprintln(w, report.FigureMarkdown(res))
		if stats := report.StatsMarkdown(res); stats != "" {
			fmt.Fprintln(w, stats)
		}
	}
	if format == "csv" || format == "all" {
		fmt.Fprintln(w, report.FigureCSV(res))
	}
	if format == "plot" || format == "all" {
		fmt.Fprintln(w, report.ASCIIPlot(res, 72, 24))
	}
	if !fast {
		for _, s := range res.Series {
			vs := s.ValidationSeries(fmt.Sprintf("%s M=%d", res.Spec.Name, s.MsgSize))
			if mape, err := vs.MAPE(); err == nil {
				fmt.Fprintf(w, "model-vs-simulation MAPE (%s, M=%d): %.1f%%\n",
					res.Spec.Name, s.MsgSize, mape*100)
			}
		}
		fmt.Fprintln(w)
	}
}

// renderRatios reports the paper's §6 claim that blocking latency is 1.4x
// to 3.1x the non-blocking latency, per scenario and message size.
func renderRatios(w io.Writer, results map[int]*sweep.FigureResult, fast bool) error {
	pairs := []struct {
		blocking, nonBlocking int
		label                 string
	}{
		{6, 4, "Case-1"},
		{7, 5, "Case-2"},
	}
	fmt.Fprintln(w, "### Blocking / non-blocking latency ratio (paper claims 1.4x-3.1x)")
	for _, p := range pairs {
		bl, okB := results[p.blocking]
		nb, okN := results[p.nonBlocking]
		if !okB || !okN {
			return fmt.Errorf("ratio needs figures %d and %d; rerun with -what all", p.blocking, p.nonBlocking)
		}
		for si := range bl.Series {
			var ratios []float64
			for i := range bl.Series[si].Clusters {
				num, den := bl.Series[si].Simulated[i], nb.Series[si].Simulated[i]
				if fast {
					num, den = bl.Series[si].Analytic[i], nb.Series[si].Analytic[i]
				}
				if den > 0 {
					ratios = append(ratios, num/den)
				}
			}
			lo, hi := minMax(ratios)
			fmt.Fprintf(w, "  %s M=%d: ratio range %.1fx .. %.1fx across C=%v\n",
				p.label, bl.Series[si].MsgSize, lo, hi, bl.Series[si].Clusters)
		}
	}
	fmt.Fprintln(w)
	return nil
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func renderAblation(w io.Writer, a *AblationData) {
	fmt.Fprintln(w, "### Ablation — model variants on the Figure-4 platform (Case 1, non-blocking, M=1024)")
	fmt.Fprintln(w, "| C | paper iteration (ms) | exact MVA (ms) | sim exp (ms) | sim det (ms) | sim open-loop (ms) |")
	fmt.Fprintln(w, "|---:|---:|---:|---:|---:|---:|")
	for _, r := range a.Rows {
		row := fmt.Sprintf("| %d | %.3f | %.3f |", r.C, r.OpenModel*1e3, r.MVA*1e3)
		if !a.HasSim {
			row += " - | - | - |"
		} else {
			row += fmt.Sprintf(" %.3f | %.3f | %.3f |", r.SimExp*1e3, r.SimDet*1e3, r.SimOpen*1e3)
		}
		fmt.Fprintln(w, row)
	}
	fmt.Fprintln(w)
}

func renderFutureWork(w io.Writer, f *FutureData) {
	fmt.Fprintln(w, "### Future work — heterogeneous Cluster-of-Clusters (128/64/48/16 nodes)")
	fmt.Fprintln(w, "| estimator | latency (ms) |")
	fmt.Fprintln(w, "|---|---:|")
	fmt.Fprintf(w, "| generalised open model (eq. 1-15 heterogeneous) | %.3f |\n", f.OpenModel*1e3)
	fmt.Fprintf(w, "| multiclass closed model (one class per cluster) | %.3f |\n", f.Multiclass*1e3)
	if f.HasSim {
		if f.Adaptive {
			fmt.Fprintf(w, "| simulation (%d adaptive reps) | %.3f ± %.3f |\n",
				f.Reps, f.Mean*1e3, f.CI*1e3)
		} else {
			fmt.Fprintf(w, "| simulation (%d reps) | %.3f ± %.3f |\n",
				f.Reps, f.Mean*1e3, f.CI*1e3)
		}
	}
	fmt.Fprintln(w)
}

// renderScenario writes a dynamic run's transient block: the time-sliced
// across-replication series, the failure-policy counters, and the
// recovery metric.
func renderScenario(w io.Writer, sc *ScenarioOutcome) {
	s := sc.Series
	fmt.Fprintf(w, "### transient analysis (%d slices of %g s, %.0f%% CI)\n",
		len(s.Slices), s.Width, s.Confidence*100)
	fmt.Fprintln(w, "| t0 (s) | t1 (s) | mean (ms) | ± CI (ms) | samples |")
	fmt.Fprintln(w, "|---:|---:|---:|---:|---:|")
	for _, sl := range s.Slices {
		mean, hw := "-", "-"
		if sl.Count > 0 {
			mean = fmt.Sprintf("%.3f", sl.Mean*1e3)
			if sl.Reps >= 2 {
				hw = fmt.Sprintf("%.3f", sl.HalfWidth*1e3)
			}
		}
		fmt.Fprintf(w, "| %.6g | %.6g | %s | %s | %d |\n", sl.T0, sl.T1, mean, hw, sl.Count)
	}
	fmt.Fprintf(w, "failure policies: %d message(s) dropped, %d rerouted\n", sc.Dropped, sc.Rerouted)
	fmt.Fprintf(w, "recovery (time to return within SLO after first fault): %s\n\n", recoveryString(sc.RecoveryS))
}

// recoveryString spells the recovery metric's two sentinel values.
func recoveryString(r float64) string {
	switch {
	case math.IsNaN(r):
		return "n/a (no fault injected or no SLO set)"
	case math.IsInf(r, 1):
		return "never (still outside the SLO at the horizon)"
	}
	return Ms(r)
}

func renderSweep(w io.Writer, o *Outcome) error {
	s := o.Sweep
	rows := make([]string, len(s.Labels))
	for i, label := range s.Labels {
		r := s.Results[i]
		if s.Fast {
			rows[i] = fmt.Sprintf("| %s | %.3f | - | - | - | - | - |", label, r.Analytic*1e3)
			continue
		}
		rel := 0.0
		if r.Simulated > 0 {
			rel = (r.Analytic - r.Simulated) / r.Simulated
		}
		converged := ""
		if s.Prec != nil && !r.Stat.Converged {
			converged = " (!)"
		}
		// ESS is only measurable when raw samples were recorded (precision
		// mode); print "-" rather than a misleading zero in fixed mode.
		ess := "-"
		if r.Stat.ESS > 0 {
			ess = fmt.Sprintf("%.0f", r.Stat.ESS)
		}
		rows[i] = fmt.Sprintf("| %s | %.3f | %.3f | %.3f | %d%s | %s | %+.1f%% |",
			label, r.Analytic*1e3, r.Simulated*1e3, r.Stat.HalfWidth*1e3,
			r.Stat.Reps, converged, ess, rel*100)
	}

	fmt.Fprintf(w, "sweep of %s\n", s.Var)
	conf := 95.0
	if s.Prec != nil {
		conf = s.Prec.Confidence * 100
	}
	fmt.Fprintf(w, "| value | analysis (ms) | simulation (ms) | %.0f%% CI (ms) | reps | ESS | rel.err |\n", conf)
	fmt.Fprintln(w, "|---:|---:|---:|---:|---:|---:|---:|")
	for _, row := range rows {
		fmt.Fprintln(w, row)
	}
	if s.Prec != nil {
		fmt.Fprintf(w, "adaptive stopping: target ±%.2g%% at %.0f%% confidence, max %d replications; (!) marks points that hit the cap\n",
			s.Prec.RelWidth*100, conf, s.Prec.MaxReps)
	}
	if s.Scenario != nil && !s.Fast {
		fmt.Fprintf(w, "\ndynamic scenario (%g s horizon): recovery after the first fault per point\n", s.Scenario.HorizonS)
		fmt.Fprintln(w, "| value | recovery | dropped | rerouted |")
		fmt.Fprintln(w, "|---:|---:|---:|---:|")
		for i, label := range s.Labels {
			if d := s.Results[i].Dynamic; d != nil {
				fmt.Fprintf(w, "| %s | %s | %d | %d |\n", label, recoveryString(d.RecoveryS), d.Dropped, d.Rerouted)
			}
		}
	}
	return nil
}

func renderPlan(w io.Writer, o *Outcome) error {
	p := o.Plan
	scvNote := fmt.Sprintf("%.3g", p.SCV)
	if math.IsInf(p.SCV, 1) {
		scvNote = "+Inf (no analytic correction; screen uses the M/M/1 model)"
	}
	fmt.Fprintf(w, "capacity plan: %d candidates screened, %d feasible, frontier %d\n",
		p.Screened, p.Feasible, len(p.Frontier))
	size := ""
	if p.SLO.MinNodes > 0 {
		size = fmt.Sprintf(", >= %d processors", p.SLO.MinNodes)
	}
	fmt.Fprintf(w, "SLO: mean latency <= %.3f ms, bottleneck utilisation <= %.2f%s at λ=%g msg/s/proc, M=%dB\n",
		p.SLO.MaxLatency*1e3, p.SLO.MaxUtil, size, p.Space.Lambda, p.Space.MessageBytes)
	fmt.Fprintf(w, "arrival process: %s (interarrival SCV %s)\n", p.Arrival.Name(), scvNote)
	fmt.Fprintf(w, "cost model: %s\n\n", p.Cost)

	switch o.Spec.Plan.Format {
	case "md":
		fmt.Fprint(w, report.PlanMarkdown(p.Frontier, p.Verified))
		if len(p.Verified) > 0 {
			fmt.Fprintf(w, "\nverification: adaptive stopping to ±%.2g%% at %.0f%% confidence, max %d replications; gap = (predicted − simulated)/simulated\n",
				p.Prec.RelWidth*100, p.Prec.Confidence*100, p.Prec.MaxReps)
		}
		if len(p.Verified) > 0 && p.Verified[0].ScenarioChecked {
			budget := "inside the horizon"
			if p.SLO.MaxRecovery > 0 {
				budget = fmt.Sprintf("<= %g s", p.SLO.MaxRecovery)
			}
			fmt.Fprintf(w, "\nscenario check (recovery budget %s):\n", budget)
			fmt.Fprintln(w, "| candidate | recovery | ok |")
			fmt.Fprintln(w, "|---|---:|---:|")
			for _, v := range p.Verified {
				fmt.Fprintf(w, "| %s | %s | %v |\n", v.Label(), recoveryString(v.Recovery), v.RecoveryOK)
			}
		}
	case "csv":
		fmt.Fprint(w, report.PlanCSV(p.Frontier, p.Verified))
	default:
		return fmt.Errorf("run: unknown format %q (want md or csv)", o.Spec.Plan.Format)
	}
	return nil
}
