package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCounters hammers a counter and a histogram
// from many goroutines; run under -race this is the data-race check,
// and the final totals pin that no increment is lost.
func TestConcurrentCounters(t *testing.T) {
	const goroutines, perG = 16, 1000
	c := &Counter{}
	h := NewHistogram([]float64{0.5, 1, 2})
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				h.Observe(1.5)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
	if got, want := h.Sum(), 1.5*goroutines*perG; got != want {
		t.Errorf("histogram sum = %g, want %g", got, want)
	}
}

// TestNilSafety pins that every write and read path tolerates a nil
// receiver — instrumentation points fire unconditionally.
func TestNilSafety(t *testing.T) {
	var c *Counter
	var h *Histogram
	var col *Collector
	var p *TraceProfile
	c.Inc()
	c.Add(3)
	h.Observe(2)
	col.Add(SimStats{Events: 1})
	col.Merge(NewCollector())
	p.Span(0, 0, "x", time.Time{}, 0)
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics must read zero")
	}
	if s, reps := col.Snapshot(); s.Events != 0 || reps != 0 {
		t.Error("nil collector must snapshot zero")
	}
	if p.Track("t") != 0 || p.Len() != 0 {
		t.Error("nil profile must be inert")
	}
}

// TestCollectorSnapshotConsistency folds replication records from many
// goroutines and checks the snapshot is the exact commutative merge:
// sums add and high-water marks max.
func TestCollectorSnapshotConsistency(t *testing.T) {
	const goroutines, perG = 8, 200
	col := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				col.Add(SimStats{
					Events:     10,
					MaxPending: int64(id + 1),
					Generated:  2,
					Dropped:    3,
					Rerouted:   1,
				})
			}
		}(i)
	}
	wg.Wait()
	s, reps := col.Snapshot()
	n := int64(goroutines * perG)
	if reps != n {
		t.Fatalf("reps = %d, want %d", reps, n)
	}
	if s.Events != 10*n || s.Generated != 2*n || s.Dropped != 3*n || s.Rerouted != n {
		t.Errorf("sums wrong: %+v", s)
	}
	if s.MaxPending != goroutines {
		t.Errorf("MaxPending = %d, want %d", s.MaxPending, goroutines)
	}
}

// TestWritePrometheus pins the text exposition format: HELP/TYPE
// headers, registration order, histogram cumulative buckets with the
// +Inf terminator, and computed gauges read at scrape time.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_runs_total", "runs executed")
	r.GaugeFunc("t_queue_depth", "jobs waiting", func() float64 { return 3 })
	h := r.Histogram("t_wall_seconds", "job wall time", []float64{0.1, 1})
	c.Add(7)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP t_runs_total runs executed",
		"# TYPE t_runs_total counter",
		"t_runs_total 7",
		"# HELP t_queue_depth jobs waiting",
		"# TYPE t_queue_depth gauge",
		"t_queue_depth 3",
		"# HELP t_wall_seconds job wall time",
		"# TYPE t_wall_seconds histogram",
		`t_wall_seconds_bucket{le="0.1"} 1`,
		`t_wall_seconds_bucket{le="1"} 2`,
		`t_wall_seconds_bucket{le="+Inf"} 3`,
		"t_wall_seconds_sum 5.55",
		"t_wall_seconds_count 3",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestDuplicateMetricPanics pins that registering the same name twice
// is a programmer error, not a silent shadow.
func TestDuplicateMetricPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "y")
}

// TestTraceProfileJSON pins the Chrome-trace shape: valid JSON, a
// process_name metadata record per track, and X slices carrying
// pid/tid/ts/dur.
func TestTraceProfileJSON(t *testing.T) {
	p := NewTraceProfile()
	pid := p.Track("traced op 0")
	base := time.Unix(1000, 0)
	p.Span(pid, 0, "op", base, 40*time.Microsecond)
	p.Span(pid, 1, "unit", base, 55*time.Microsecond)
	p.Span(pid, 1, "unit", base.Add(60*time.Microsecond), 20*time.Microsecond)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d trace events, want 4", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0]["ph"] != "M" {
		t.Errorf("first event is %v, want process_name metadata", doc.TraceEvents[0])
	}
	slice := doc.TraceEvents[1]
	if slice["ph"] != "X" || slice["dur"].(float64) != 40 {
		t.Errorf("unexpected slice %v", slice)
	}
}
