package sim

import (
	"math"

	"hmscs/internal/rng"
	"hmscs/internal/scenario"
	"hmscs/internal/stats"
	"hmscs/internal/workload"
)

// Window is the measurement rule both engines share: which delivered
// messages count, what is kept of them, when the run stops, and the
// throughput over the window. The first warm-up deliveries are
// discarded; the window opens when the last of them lands (at time zero
// without a warm-up) and the engine stops at the target count. A
// scenario run measures every delivery of its horizon instead, keeps
// each sample's completion time, and never times out (DESIGN.md §11).
type Window struct {
	Latency     stats.Welford
	Sample      []float64 // raw latencies, when recorded
	SampleTimes []float64 // their completion times, in scenario runs

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
		if w.dynamic {
			w.SampleTimes = append(w.SampleTimes, now)
		}
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

// Traffic is the traffic side both engines share: every source's arrival
// process and random stream, the scenario's source lifecycles and rate
// profile, and the measurement window their deliveries fill. An engine
// resets it per replication, calls Run once, re-arms a source with Arm,
// and hands every delivery to Deliver.
type Traffic struct {
	Window
	// Life is the sources' scenario state; stationary runs do not use it.
	Life Lifecycle

	kind    EventKind // the generation event; its idx is the source
	sources []workload.Source
	streams []rng.Stream
	profile *scenario.Profile
	maxT    float64 // the time cap; the horizon in a scenario run
}

// Reset readies t for one stationary replication on eng: source p draws
// its gaps from gen's arrival process at rates[p] with streams[p] and
// fires (kind, p). The window discards warmup deliveries and then
// measures up to measured, keeping the raw latencies when record is set.
// maxT caps the clock (zero for no cap). Only the sources' storage
// survives from an earlier replication.
func (t *Traffic) Reset(eng *Engine, kind EventKind, gen workload.Generator, rates []float64, streams []rng.Stream,
	warmup, measured int, maxT float64, record bool) {
	if maxT <= 0 {
		maxT = math.Inf(1)
	}
	t.Window = Window{eng: eng, warmup: int64(warmup), target: int64(measured), record: record}
	t.kind, t.streams, t.profile, t.maxT = kind, streams, nil, maxT
	t.sources = gen.Sources(t.sources, rates)
}

// Dynamic turns t's replication into a scenario run over exactly
// [0, horizon]. The timeline's events are scheduled here, as (kind,
// index), before any traffic is armed, so at equal times they dispatch
// first and a failure at t is in force for every traffic event at t.
// profile stretches every gap, the sources in down start down (they join
// when a repair names them), and the window measures the whole horizon.
func Dynamic[E interface{ At() float64 }](t *Traffic, events []E, kind EventKind, horizon float64, profile *scenario.Profile, down []int32) {
	for i := range events {
		t.eng.ScheduleAt(events[i].At(), kind, int32(i))
	}
	t.profile, t.maxT = profile, horizon
	t.warmup, t.target, t.dynamic = 0, math.MaxInt32, true
	t.Life.Reset(t.eng, len(t.sources))
	for _, p := range down {
		t.Life.Fail(int(p))
	}
}

// Run arms every source that is up and runs the engine to the end of the
// replication: the scenario horizon inclusive (the clock is pinned there
// even if the event set drains early, so time-weighted statistics close
// at the horizon), else the time cap or the window's stop.
func (t *Traffic) Run() {
	if t.record {
		n := t.target
		if !math.IsInf(t.maxT, 1) && n > 4096 {
			// A capped run may collect far fewer samples than its target;
			// start small and let append grow.
			n = 4096
		}
		t.Sample = make([]float64, 0, n)
	}
	for p := range t.sources {
		if !t.dynamic || !t.Life.Down(p) {
			t.Arm(p)
		}
	}
	if t.dynamic {
		t.eng.RunWindow(t.maxT, true)
	} else {
		t.eng.Run(t.maxT)
	}
}

// Arm schedules source p's next generation after a gap drawn from its
// arrival process; in a scenario run the gap is stretched through the
// rate profile (a pure function of clock and gap, so the draw sequence is
// untouched) and the event is recorded as p's pending one.
func (t *Traffic) Arm(p int) {
	gap := t.sources[p].Next(&t.streams[p])
	if !t.dynamic {
		t.eng.Schedule(gap, t.kind, int32(p))
		return
	}
	t.Life.Armed(p, t.eng.Schedule(t.profile.Stretch(t.eng.Now(), gap), t.kind, int32(p)))
}
