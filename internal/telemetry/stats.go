package telemetry

import "sync"

// SimStats is the per-replication engine record: what one simulation
// replication did. Engines accumulate these numbers in plain local
// variables — no atomics in the event loop — and fold one SimStats into
// a Collector when the replication finishes.
//
// Every field is deterministic for a given (spec, seed) and
// parallelism-invariant: merging is commutative.
type SimStats struct {
	// Events is the number of engine events dispatched.
	Events int64 `json:"events"`
	// MaxPending is the event-heap high-water mark (max over
	// replications).
	MaxPending int64 `json:"max_pending"`
	// Generated / Dropped / Rerouted are message totals; Dropped and
	// Rerouted come from dynamic scenarios.
	Generated int64 `json:"generated"`
	Dropped   int64 `json:"dropped"`
	Rerouted  int64 `json:"rerouted"`
}

// Merge folds o into s. Sums add and the high-water mark takes the max,
// so the merged total is independent of replication completion order.
func (s *SimStats) Merge(o SimStats) {
	s.Events += o.Events
	if o.MaxPending > s.MaxPending {
		s.MaxPending = o.MaxPending
	}
	s.Generated += o.Generated
	s.Dropped += o.Dropped
	s.Rerouted += o.Rerouted
}

// Collector accumulates SimStats across replications (and, on the
// server, across runs). Add is called once per replication — off the
// event-loop hot path — so a mutex is fine.
type Collector struct {
	mu   sync.Mutex
	reps int64
	sum  SimStats
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Add folds one replication's stats in. Nil-safe.
func (c *Collector) Add(s SimStats) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.reps++
	c.sum.Merge(s)
	c.mu.Unlock()
}

// Merge folds another collector's current totals in. Nil-safe in both
// directions.
func (c *Collector) Merge(o *Collector) {
	if c == nil || o == nil {
		return
	}
	sum, reps := o.Snapshot()
	c.mu.Lock()
	c.reps += reps
	c.sum.Merge(sum)
	c.mu.Unlock()
}

// Snapshot returns the merged totals and the number of replications
// folded in. Nil-safe.
func (c *Collector) Snapshot() (SimStats, int64) {
	if c == nil {
		return SimStats{}, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sum, c.reps
}

// RunStats is the telemetry section of a run.Outcome: the merged
// engine stats for the whole experiment, how many replications they
// cover, and the run's wall time. WallSeconds is recorded by the
// runner, outside any engine.
type RunStats struct {
	Sim          SimStats `json:"sim"`
	Replications int64    `json:"replications"`
	WallSeconds  float64  `json:"wall_s"`
}

// EventsPerSecond is the run's aggregate engine throughput; zero when
// wall time was not recorded.
func (r *RunStats) EventsPerSecond() float64 {
	if r == nil || r.WallSeconds <= 0 {
		return 0
	}
	return float64(r.Sim.Events) / r.WallSeconds
}
