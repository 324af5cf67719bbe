package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// traceEvent is one Chrome-trace "complete" slice: a named span on a
// (pid, tid) track. Times are microseconds, the unit about:tracing and
// Perfetto expect.
type traceEvent struct {
	pid, tid int
	name     string
	ts, dur  int64
}

// TraceProfile collects named spans on (pid, tid) tracks and writes
// them as Chrome trace-event JSON (load the file in about:tracing or
// ui.perfetto.dev). Callers register one track per process-level unit
// of work (a traced operation, a probe set) and place spans on threads
// within it.
//
// Time is only recorded, never branched on, so attaching a profile
// cannot change what is being measured.
type TraceProfile struct {
	mu     sync.Mutex
	tracks []string
	events []traceEvent
}

// NewTraceProfile returns an empty profile.
func NewTraceProfile() *TraceProfile { return &TraceProfile{} }

// Track registers a named track and returns its pid. Nil-safe: a nil
// profile returns 0.
func (p *TraceProfile) Track(name string) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tracks = append(p.tracks, name)
	return len(p.tracks) - 1
}

// Span records one completed slice on track pid, thread tid. Nil-safe.
func (p *TraceProfile) Span(pid, tid int, name string, start time.Time, d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.events = append(p.events, traceEvent{
		pid: pid, tid: tid, name: name,
		ts: start.UnixNano() / 1e3, dur: d.Microseconds(),
	})
	p.mu.Unlock()
}

// Len returns the number of recorded spans. Nil-safe.
func (p *TraceProfile) Len() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.events)
}

// WriteTo writes the profile as Chrome trace-event JSON. Spans are
// sorted by (pid, tid, ts) so output is stable for a given set of
// recorded spans.
func (p *TraceProfile) WriteTo(w io.Writer) (int64, error) {
	p.mu.Lock()
	tracks := append([]string(nil), p.tracks...)
	events := append([]traceEvent(nil), p.events...)
	p.mu.Unlock()
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.pid != b.pid {
			return a.pid < b.pid
		}
		if a.tid != b.tid {
			return a.tid < b.tid
		}
		return a.ts < b.ts
	})
	var n int64
	emit := func(format string, args ...any) error {
		m, err := fmt.Fprintf(w, format, args...)
		n += int64(m)
		return err
	}
	if err := emit("{\"traceEvents\":[\n"); err != nil {
		return n, err
	}
	first := true
	for pid, name := range tracks {
		if !first {
			if err := emit(",\n"); err != nil {
				return n, err
			}
		}
		first = false
		if err := emit("{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{\"name\":%q}}", pid, name); err != nil {
			return n, err
		}
	}
	for _, ev := range events {
		if !first {
			if err := emit(",\n"); err != nil {
				return n, err
			}
		}
		first = false
		if err := emit("{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"name\":%q,\"ts\":%d,\"dur\":%d}",
			ev.pid, ev.tid, ev.name, ev.ts, ev.dur); err != nil {
			return n, err
		}
	}
	if err := emit("\n]}\n"); err != nil {
		return n, err
	}
	return n, nil
}
