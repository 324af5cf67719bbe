// Package sim is the discrete-event simulator that validates the analytical
// model, playing the role of the ad-hoc simulators of the paper's §6:
// processors generate exponentially spaced requests to random destinations,
// every communication network is a FIFO single server, and message latency
// is stamped at a sink. Beyond the paper it supports open-loop sources,
// non-exponential service, the full workload.Generator axes — arrival
// processes (Poisson, periodic, MMPP bursty, heavy-tailed, trace replay),
// traffic patterns and message-size distributions — warm-up control, and
// multi-replication runs with confidence intervals.
//
// The execution core is allocation-free: events are plain typed records
// (kind + payload index) kept in value slices, and the engine dispatches
// them to a Handler instead of invoking heap-allocated closures. See
// DESIGN.md §3 for the event-core design.
package sim

import (
	"fmt"
	"math"
)

// EventKind discriminates event records. Kinds are owned by the Handler
// (the simulator built on top of the engine), not by the engine itself.
type EventKind uint8

// event is one scheduled occurrence: a timestamp, a FIFO tie-break, and a
// (kind, idx) payload the handler interprets. It is a plain value — no
// pointers — so event lists never allocate per event.
type event struct {
	at   float64
	seq  uint64 // FIFO tie-break for simultaneous events
	kind EventKind
	idx  int32
}

// Handler dispatches events popped by the engine. idx is the payload the
// scheduler passed: a processor id, a service-centre id, a message index
// into a pooled table — whatever the kind implies.
type Handler interface {
	Handle(kind EventKind, idx int32)
}

// less orders events by (time, seq). seq is unique per engine, so this is
// a total order: any correct heap pops exactly the same sequence.
func less(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap ordered by (time, seq). Sifts move a hole
// instead of swapping, so each level costs one copy; the shallower tree
// halves the levels a pop walks at the paper's event-set sizes.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !less(ev, s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = ev
	*h = s
}

// replaceTop overwrites the root with ev and restores heap order: a pop
// and a push for the price of one sift-down.
func (h eventHeap) replaceTop(ev event) {
	n := len(h)
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		if c+3 < n {
			// A two-round tournament: two independent comparisons, then
			// one, instead of a chain of three dependent ones.
			k := h[c : c+4 : c+4]
			a, b := 0, 2
			if less(k[1], k[0]) {
				a = 1
			}
			if less(k[3], k[2]) {
				b = 3
			}
			if less(k[b], k[a]) {
				a = b
			}
			m = c + a
		} else {
			for j := c + 1; j < n; j++ {
				if less(h[j], h[m]) {
					m = j
				}
			}
		}
		if !less(h[m], ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}

// removeTop drops the root.
func (h *eventHeap) removeTop() {
	n := len(*h) - 1
	last := (*h)[n]
	*h = (*h)[:n]
	if n > 0 {
		h.replaceTop(last)
	}
}

// Engine is a sequential discrete-event execution core: a clock, a
// future-event set, and a handler the events are dispatched to.
//
// The dispatch loop fuses pop and push. The event being handled stays at
// the heap root while its handler runs (held); the handler's first
// Schedule overwrites it with one sift-down, and the root is removed only
// if the handler scheduled nothing. Every method that observes the set
// from inside a handler resolves the held root first.
type Engine struct {
	now     float64
	seq     uint64
	events  eventHeap
	held    bool
	handler Handler
	stopped bool

	// Lifetime instrumentation (DESIGN.md §12): plain fields bumped in
	// the event loop — no atomics, no time reads — and folded into a
	// telemetry.Collector once per replication.
	executed   int64
	maxPending int
}

// NewEngine returns an engine with the clock at zero. Call SetHandler
// before Run.
func NewEngine() *Engine { return &Engine{} }

// reset returns the engine to its zero state, clock at zero and no
// events, keeping the event set's storage.
func (e *Engine) reset() { *e = Engine{events: e.events[:0]} }

// SetHandler installs the dispatcher that Run delivers events to.
func (e *Engine) SetHandler(h Handler) { e.handler = h }

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule enqueues an event of the given kind after delay. A negative
// delay is a programming error and panics; simultaneous events are
// dispatched in scheduling order.
func (e *Engine) Schedule(delay float64, kind EventKind, idx int32) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: scheduling with invalid delay %v", delay))
	}
	e.insert(e.now+delay, kind, idx)
}

// ScheduleAt enqueues an event at the absolute time at. Scheduling into the
// past is a programming error and panics; simultaneous events dispatch in
// scheduling order, exactly like Schedule.
func (e *Engine) ScheduleAt(at float64, kind EventKind, idx int32) {
	if at < e.now || math.IsNaN(at) {
		panic(fmt.Sprintf("sim: scheduling at invalid time %v (now %v)", at, e.now))
	}
	e.insert(at, kind, idx)
}

// insert adds one event, replacing the held root when there is one. A
// replacement leaves the set's size where it was before the held event's
// dispatch, so only a push can raise the high-water mark.
func (e *Engine) insert(at float64, kind EventKind, idx int32) {
	e.seq++
	ev := event{at: at, seq: e.seq, kind: kind, idx: idx}
	if e.held {
		e.held = false
		e.events.replaceTop(ev)
		return
	}
	e.events.push(ev)
	if n := len(e.events); n > e.maxPending {
		e.maxPending = n
	}
}

// resolve removes the held root, if any: the event already dispatched
// whose handler has not (yet) scheduled a replacement.
func (e *Engine) resolve() {
	if e.held {
		e.held = false
		e.events.removeTop()
	}
}

// dispatch advances the clock to the root event and hands it to the
// handler, holding the root in place for a replace-top Schedule.
func (e *Engine) dispatch(ev event) {
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: time went backwards: %v < %v", ev.at, e.now))
	}
	e.now = ev.at
	e.held = true
	e.handler.Handle(ev.kind, ev.idx)
	e.resolve()
	e.executed++
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run dispatches events to the handler until the event set empties, Stop
// is called, or the clock passes maxTime (use math.Inf(1) for no limit).
// It returns the number of events executed.
func (e *Engine) Run(maxTime float64) int {
	if e.handler == nil {
		panic("sim: engine Run without a handler (call SetHandler first)")
	}
	executed := 0
	e.stopped = false
	for !e.stopped && len(e.events) > 0 {
		ev := e.events[0]
		if ev.at > maxTime {
			// The next event lies past the horizon: leave it in place for a
			// later Run with a larger horizon. The clock advances to the
			// deadline, and scheduling between the deadline and the event
			// stays legal.
			e.now = maxTime
			return executed
		}
		e.dispatch(ev)
		executed++
	}
	return executed
}

// Executed returns the lifetime number of events dispatched.
func (e *Engine) Executed() int64 { return e.executed }

// MaxPending returns the lifetime high-water mark of the future-event
// set.
func (e *Engine) MaxPending() int { return e.maxPending }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int {
	e.resolve()
	return len(e.events)
}

// NextEventAt returns the timestamp of the earliest pending event, or +Inf
// when the future-event set is empty.
func (e *Engine) NextEventAt() float64 {
	e.resolve()
	if len(e.events) == 0 {
		return math.Inf(1)
	}
	return e.events[0].at
}

// RunWindow dispatches every event with time strictly below horizon (at or
// below, when inclusive) and leaves the clock exactly at horizon, so
// time-weighted statistics close at a common boundary. Stop aborts it
// like Run. It returns the number of events executed.
func (e *Engine) RunWindow(horizon float64, inclusive bool) int {
	if e.handler == nil {
		panic("sim: engine RunWindow without a handler (call SetHandler first)")
	}
	executed := 0
	e.stopped = false
	for !e.stopped && len(e.events) > 0 {
		ev := e.events[0]
		if ev.at > horizon || (!inclusive && ev.at == horizon) {
			break
		}
		e.dispatch(ev)
		executed++
	}
	if e.now < horizon && !math.IsInf(horizon, 1) {
		e.now = horizon
	}
	return executed
}
