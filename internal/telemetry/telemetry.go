// Package telemetry is the instrumentation layer: allocation-conscious
// atomic counters and histograms, a registry that renders them and
// scrape-time computed values in Prometheus text exposition format,
// per-run simulation statistics folded once per replication, and a
// Chrome-trace span writer.
//
// The design constraint (DESIGN.md §12) is zero perturbation: nothing
// here draws from an RNG, and no reading of a metric can change what
// the engines compute. Engines count with plain local variables and
// fold a single SimStats record into a Collector when a replication
// finishes; wall-clock time is only ever *recorded* (sink timestamps,
// trace spans), never branched on inside an event loop. Goldens and the
// determinism suites therefore stay bit-identical whether or not
// telemetry is enabled.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// nil-safe so instrumentation points can fire unconditionally.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bound cumulative histogram with atomic buckets.
// Bounds are upper bounds in ascending order; an implicit +Inf bucket
// catches the rest. Observe is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-updated
	count  atomic.Int64
}

// NewHistogram returns a histogram with the given ascending upper
// bounds. The bounds slice is copied.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// metricEntry is one registered metric. Exactly one of scalar or hist
// is set; scalar metrics read their value at render time, which is how
// computed gauges (queue depth, uptime) plug in without a write path.
type metricEntry struct {
	name, help, kind string // kind: "counter" | "gauge" | "histogram"
	scalar           func() float64
	hist             *Histogram
}

// Registry holds named metrics in registration order and renders them
// as Prometheus text exposition format. Registration is not hot-path;
// it takes a mutex. Rendering reads atomics and calls value funcs, so a
// scrape never blocks an engine.
type Registry struct {
	mu      sync.Mutex
	metrics []metricEntry
	names   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) register(e metricEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[e.name] {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", e.name))
	}
	r.names[e.name] = true
	r.metrics = append(r.metrics, e)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(metricEntry{name: name, help: help, kind: "counter",
		scalar: func() float64 { return float64(c.Value()) }})
	return c
}

// CounterFunc registers a counter whose value is computed at scrape
// time — for totals that already live elsewhere (e.g. a server's run
// counter, a Collector's event total).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(metricEntry{name: name, help: help, kind: "counter", scalar: fn})
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(metricEntry{name: name, help: help, kind: "gauge", scalar: fn})
}

// Histogram registers and returns a new histogram with the given
// ascending upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.register(metricEntry{name: name, help: help, kind: "histogram", hist: h})
	return h
}

// fmtFloat renders a metric value the way Prometheus text format
// expects: shortest round-trip representation, integers without a
// trailing ".0".
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in registration
// order as Prometheus text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := make([]metricEntry, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()
	for _, m := range metrics {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind); err != nil {
			return err
		}
		if m.hist != nil {
			cum := int64(0)
			for i, b := range m.hist.bounds {
				cum += m.hist.counts[i].Load()
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, fmtFloat(b), cum); err != nil {
					return err
				}
			}
			cum += m.hist.counts[len(m.hist.bounds)].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
				m.name, cum, m.name, fmtFloat(m.hist.Sum()), m.name, m.hist.Count()); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", m.name, fmtFloat(m.scalar())); err != nil {
			return err
		}
	}
	return nil
}
