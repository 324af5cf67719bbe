package sim

import (
	"hmscs/internal/output"
	"hmscs/internal/stats"
)

// Window is the simulator's measurement rule: which delivered
// messages count, what is kept of them, when the run stops, and the
// throughput over the window. The first warm-up deliveries are
// discarded; the window opens when the last of them lands (at time zero
// without a warm-up) and the engine stops at the target count. A
// scenario run measures every delivery of its horizon instead, bins each
// latency into its slice by completion time, and never times out
// (DESIGN.md §11).
type Window struct {
	Latency stats.Welford
	Sample  []float64   // raw latencies, when recorded
	Bins    output.Bins // the latencies' slice sums and counts, in scenario runs

	eng          *Engine
	warmup       int64
	target       int64
	record       bool
	dynamic      bool
	completed    int64
	measureStart float64
}

// Deliver counts one delivered message born at born, at the engine's
// clock, and reports whether the window measured it.
func (w *Window) Deliver(born float64) bool {
	w.completed++
	now := w.eng.Now()
	if w.completed == w.warmup {
		w.measureStart = now
	}
	if w.completed <= w.warmup || w.Latency.Count() >= w.target {
		return false
	}
	lat := now - born
	w.Latency.Add(lat)
	if w.record {
		w.Sample = append(w.Sample, lat)
	}
	if w.dynamic {
		w.Bins.Add(now, lat)
	}
	if w.Latency.Count() == w.target {
		w.eng.Stop()
	}
	return true
}

// Close ends the window at the engine's clock and returns the measured
// delivery rate over it and whether a stationary run stopped short of its
// target (its time cap fired first).
func (w *Window) Close() (throughput float64, timedOut bool) {
	measured := w.Latency.Count()
	timedOut = !w.dynamic && measured < w.target
	if timedOut && len(w.Sample) < cap(w.Sample)/2 {
		// Do not retain a mostly empty backing array for the lifetime of
		// the result.
		w.Sample = append(make([]float64, 0, len(w.Sample)), w.Sample...)
	}
	if window := w.eng.Now() - w.measureStart; window > 0 && measured > 0 {
		throughput = float64(measured) / window
	}
	return throughput, timedOut
}
