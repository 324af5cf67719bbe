package sim

import (
	"math"
	"sort"
	"testing"

	"hmscs/internal/rng"
)

// handlerFunc adapts a function to the Handler interface for tests.
type handlerFunc func(kind EventKind, idx int32)

func (f handlerFunc) Handle(kind EventKind, idx int32) { f(kind, idx) }

func TestEngineOrdersEvents(t *testing.T) {
	e := NewEngine()
	var order []int32
	e.SetHandler(handlerFunc(func(_ EventKind, idx int32) { order = append(order, idx) }))
	e.Schedule(3, 0, 3)
	e.Schedule(1, 0, 1)
	e.Schedule(2, 0, 2)
	n := e.Run(math.Inf(1))
	if n != 3 {
		t.Fatalf("executed %d events", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int32
	e.SetHandler(handlerFunc(func(_ EventKind, idx int32) { order = append(order, idx) }))
	for i := 0; i < 10; i++ {
		e.Schedule(1.0, 0, int32(i))
	}
	e.Run(math.Inf(1))
	for i, v := range order {
		if v != int32(i) {
			t.Fatalf("simultaneous events ran out of order: %v", order)
		}
	}
}

func TestEngineDispatchesKindAndIndex(t *testing.T) {
	e := NewEngine()
	type rec struct {
		kind EventKind
		idx  int32
	}
	var got []rec
	e.SetHandler(handlerFunc(func(kind EventKind, idx int32) { got = append(got, rec{kind, idx}) }))
	e.Schedule(1, 2, 77)
	e.Schedule(2, 5, -3)
	e.Run(math.Inf(1))
	if len(got) != 2 || got[0] != (rec{2, 77}) || got[1] != (rec{5, -3}) {
		t.Fatalf("dispatched payloads = %v", got)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	e.SetHandler(handlerFunc(func(EventKind, int32) {
		count++
		if count < 100 {
			e.Schedule(0.5, 0, 0)
		}
	}))
	e.Schedule(0.5, 0, 0)
	e.Run(math.Inf(1))
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
	if math.Abs(e.Now()-50) > 1e-9 {
		t.Fatalf("clock = %v, want 50", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.SetHandler(handlerFunc(func(EventKind, int32) {
		ran++
		if ran == 3 {
			e.Stop()
		}
	}))
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i), 0, 0)
	}
	e.Run(math.Inf(1))
	if ran != 3 {
		t.Fatalf("ran %d events after Stop at 3", ran)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d", e.Pending())
	}
}

func TestEngineMaxTime(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.SetHandler(handlerFunc(func(EventKind, int32) { ran++ }))
	e.Schedule(1, 0, 0)
	e.Schedule(5, 0, 0)
	e.Run(2)
	if ran != 1 {
		t.Fatalf("ran %d events before maxTime", ran)
	}
	if e.Now() != 2 {
		t.Fatalf("clock = %v, want clamped to 2", e.Now())
	}
}

func TestEngineZeroDelay(t *testing.T) {
	e := NewEngine()
	ran := false
	e.SetHandler(handlerFunc(func(EventKind, int32) { ran = true }))
	e.Schedule(0, 0, 0)
	e.Run(math.Inf(1))
	if !ran || e.Now() != 0 {
		t.Fatal("zero-delay event mishandled")
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.Schedule(-1, 0, 0)
}

func TestEngineNaNDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("NaN delay did not panic")
		}
	}()
	e.Schedule(math.NaN(), 0, 0)
}

func TestEngineRunWithoutHandlerPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Run without a handler did not panic")
		}
	}()
	e.Run(math.Inf(1))
}

func TestEngineScheduleAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.SetHandler(handlerFunc(func(EventKind, int32) {}))
	e.Schedule(10, 0, 0)
	e.Run(math.Inf(1))
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling before the clock did not panic")
		}
	}()
	e.ScheduleAt(5, 0, 1)
}

// TestEngineSlicedRunRetainsBoundaryEvent pins Engine.Run's maxTime
// behaviour: an event past the horizon stays pending rather than being
// silently dropped, so repeated bounded runs lose nothing.
func TestEngineSlicedRunRetainsBoundaryEvent(t *testing.T) {
	eng := NewEngine()
	st := rng.NewStream(9)
	eng.SetHandler(handlerFunc(func(EventKind, int32) {
		eng.Schedule(st.Exp(1e-3), 0, 0)
	}))
	for i := 0; i < 512; i++ {
		eng.Schedule(st.Exp(1e-3), 0, 0)
	}
	for i := 0; i < 5000; i++ {
		eng.Run(eng.Now() + 1e-3)
		if p := eng.Pending(); p != 512 {
			t.Fatalf("slice %d: pending = %d, want steady 512", i, p)
		}
	}
}

// TestEngineScheduleAfterBoundedRun pins the retain contract: after a
// bounded Run stops short of a future event, scheduling between the
// horizon and that event must work and dispatch in time order.
func TestEngineScheduleAfterBoundedRun(t *testing.T) {
	eng := NewEngine()
	var order []int32
	eng.SetHandler(handlerFunc(func(_ EventKind, idx int32) { order = append(order, idx) }))
	eng.Schedule(10, 0, 10)
	if n := eng.Run(1); n != 0 {
		t.Fatalf("bounded run executed %d events", n)
	}
	if eng.Pending() != 1 {
		t.Fatalf("boundary event lost: pending = %d", eng.Pending())
	}
	eng.Schedule(1, 0, 2) // t = 2, below the retained event's t = 10
	eng.Run(math.Inf(1))
	if len(order) != 2 || order[0] != 2 || order[1] != 10 {
		t.Fatalf("dispatch order = %v, want [2 10]", order)
	}
}

// TestEngineRunNeverRewindsClock pins that a bounded Run whose deadline
// lies behind the clock leaves the clock where it was: a rewound clock
// would admit negative event times, which the event set's bit-pattern
// key does not order.
func TestEngineRunNeverRewindsClock(t *testing.T) {
	eng := NewEngine()
	var order []int32
	eng.SetHandler(handlerFunc(func(_ EventKind, idx int32) { order = append(order, idx) }))
	eng.Schedule(1, 0, 1)
	eng.Run(-1)
	if eng.Now() != 0 {
		t.Fatalf("Run(-1) moved the clock to %v, want 0", eng.Now())
	}
	eng.Schedule(0.5, 0, 0)
	eng.Run(math.Inf(1))
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("dispatch order = %v, want [0 1]", order)
	}
}

// refEvent is one scheduled event as the reference model sees it; its
// index in propModel.sched is its scheduling order, the engine's seq.
type refEvent struct {
	at float64
	id int32
}

// propModel is the handler of the event-set property tests. Each dispatch
// schedules 0, 1, 2 or 3 successors (the replace-top path and plain
// pushes) with delays drawn by delay, and sometimes inspects the set from
// inside the handler; with stopOdds > 0 it stops the engine once in
// stopOdds dispatches.
type propModel struct {
	t          *testing.T
	eng        *Engine
	st         rng.Stream
	delay      func(*rng.Stream) float64
	stopOdds   int
	budget     int        // events the model may still schedule
	sched      []refEvent // every event scheduled, by id
	order      []int32    // dispatch log
	maxPending int        // reference high-water mark of the pending set
}

// gridDelay draws delays on a quarter-second grid, so exact time ties are
// common.
func gridDelay(st *rng.Stream) float64 { return float64(st.Intn(4)) * 0.25 }

// wideDelay draws delays over the whole range an event key must order:
// zero, the smallest subnormal, log-uniform from 1e-300 to 1e6 (most of
// which vanish against a clock past zero and tie with it exactly), and
// rarely +Inf.
func wideDelay(st *rng.Stream) float64 {
	switch st.Intn(32) {
	case 0, 1, 2:
		return 0
	case 3:
		return math.SmallestNonzeroFloat64
	case 4:
		return math.Inf(1)
	default:
		return math.Pow(10, -300+306*st.Float64())
	}
}

func (m *propModel) pending() int { return len(m.sched) - len(m.order) }

// record enters one event due at at into the reference, exactly as given
// (−0 included), and returns its id; false once the budget is spent.
func (m *propModel) record(at float64) (int32, bool) {
	if m.budget == 0 {
		return 0, false
	}
	m.budget--
	id := int32(len(m.sched))
	m.sched = append(m.sched, refEvent{at: at, id: id})
	m.maxPending = max(m.maxPending, m.pending())
	return id, true
}

func (m *propModel) schedule(delay float64) {
	if id, ok := m.record(m.eng.Now() + delay); ok {
		m.eng.Schedule(delay, 0, id)
	}
}

func (m *propModel) scheduleAt(at float64) {
	if id, ok := m.record(at); ok {
		m.eng.ScheduleAt(at, 0, id)
	}
}

// undispatched returns the reference's pending events, in scheduling
// order.
func (m *propModel) undispatched() []refEvent {
	done := make([]bool, len(m.sched))
	for _, id := range m.order {
		done[id] = true
	}
	var left []refEvent
	for _, ev := range m.sched {
		if !done[ev.id] {
			left = append(left, ev)
		}
	}
	return left
}

// nextAt is the reference NextEventAt: the earliest undispatched event.
func (m *propModel) nextAt() float64 {
	next := math.Inf(1)
	for _, ev := range m.undispatched() {
		if ev.at < next {
			next = ev.at
		}
	}
	return next
}

func (m *propModel) Handle(_ EventKind, idx int32) {
	m.order = append(m.order, idx)
	switch m.st.Intn(8) {
	case 0:
		if got, want := m.eng.Pending(), m.pending(); got != want {
			m.t.Fatalf("in handler: Pending = %d, want %d", got, want)
		}
	case 1:
		if got, want := m.eng.NextEventAt(), m.nextAt(); got != want {
			m.t.Fatalf("in handler: NextEventAt = %v, want %v", got, want)
		}
	}
	for k := m.st.Intn(4); k > 0; k-- {
		m.schedule(m.delay(&m.st))
	}
	if m.stopOdds > 0 && m.st.Intn(m.stopOdds) == 0 {
		m.eng.Stop()
	}
}

// drain runs the engine to empty through bounded Run slices, checking
// the set's observers against the reference between slices.
func (m *propModel) drain(horizons *rng.Stream) {
	for m.eng.Pending() > 0 {
		m.eng.Run(m.eng.Now() + float64(horizons.Intn(3))*0.5)
		if got, want := m.eng.Pending(), m.pending(); got != want {
			m.t.Fatalf("after Run: Pending = %d, want %d", got, want)
		}
		if got, want := m.eng.NextEventAt(), m.nextAt(); got != want {
			m.t.Fatalf("after Run: NextEventAt = %v, want %v", got, want)
		}
	}
}

// checkOrder demands the dispatch log equal every scheduled event sorted
// by (at, seq): (at, seq) is a total order and no event is scheduled
// before the clock, so a drained engine must have dispatched exactly that
// sequence.
func (m *propModel) checkOrder() {
	want := append([]refEvent(nil), m.sched...)
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].id < want[j].id
	})
	if len(m.order) != len(want) {
		m.t.Fatalf("dispatched %d events, scheduled %d", len(m.order), len(want))
	}
	for i, ev := range want {
		if m.order[i] != ev.id {
			m.t.Fatalf("dispatch %d: got event %d, want %d (t=%v)", i, m.order[i], ev.id, ev.at)
		}
	}
}

// TestEngineDispatchOrderMatchesReference property-tests the event set
// against a sort over (at, seq): handlers that schedule zero, one or
// several events, Stop from inside a handler, bounded Run horizons that
// leave events pending, and observers called mid-handler.
func TestEngineDispatchOrderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		eng := NewEngine()
		m := &propModel{t: t, eng: eng, st: *rng.NewStream(seed), delay: gridDelay, stopOdds: 40, budget: 6000}
		eng.SetHandler(m)
		horizons := rng.NewStream(seed + 100)
		for i := 0; i < 64; i++ {
			m.schedule(float64(m.st.Intn(8)) * 0.25)
		}
		m.drain(horizons)
		m.checkOrder()
		if eng.MaxPending() != m.maxPending {
			t.Fatalf("seed %d: MaxPending = %d, want %d", seed, eng.MaxPending(), m.maxPending)
		}
	}
}

// TestEngineKeyOrderOverWideTimes property-tests the event set's integer
// key against the same sort over (at, seq), on times where a float's bit
// pattern is all that orders it: delays from the smallest subnormal to
// 1e6 and +Inf, exact ties, and −0 scheduled at clock 0, which must tie
// with +0 and not sort after +Inf. It drives the engine through
// RunWindow, with horizons that equal a pending event's time, alternately
// exclusive and inclusive.
func TestEngineKeyOrderOverWideTimes(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for seed := uint64(1); seed <= 8; seed++ {
		eng := NewEngine()
		m := &propModel{t: t, eng: eng, st: *rng.NewStream(seed), delay: wideDelay, budget: 4000}
		eng.SetHandler(m)
		horizons := rng.NewStream(seed + 100)
		// −0 goes first and again among the ties at 0, so it must dispatch
		// first, then by scheduling order among the +0 events.
		m.scheduleAt(negZero)
		for i := 0; i < 64; i++ {
			switch i % 16 {
			case 3:
				m.scheduleAt(negZero)
			case 5, 6:
				m.schedule(0)
			default:
				m.schedule(wideDelay(&m.st))
			}
		}
		if got := eng.NextEventAt(); got != 0 || math.Signbit(got) {
			t.Fatalf("seed %d: NextEventAt = %v after scheduling at −0, want +0", seed, got)
		}
		for eng.Pending() > 0 {
			left := m.undispatched()
			horizon := left[horizons.Intn(len(left))].at
			inclusive := horizons.Intn(2) == 0
			eng.RunWindow(horizon, inclusive)
			if !math.IsInf(horizon, 1) && eng.Now() != horizon {
				t.Fatalf("seed %d: RunWindow(%v, %v) left the clock at %v", seed, horizon, inclusive, eng.Now())
			}
			for _, ev := range m.undispatched() {
				if ev.at < horizon || (inclusive && ev.at == horizon) {
					t.Fatalf("seed %d: RunWindow(%v, %v) left event %d at %v pending", seed, horizon, inclusive, ev.id, ev.at)
				}
			}
			if got, want := eng.Pending(), m.pending(); got != want {
				t.Fatalf("seed %d: after RunWindow: Pending = %d, want %d", seed, got, want)
			}
		}
		if m.order[0] != 0 {
			t.Fatalf("seed %d: event %d dispatched first, want the one at −0", seed, m.order[0])
		}
		m.checkOrder()
		if eng.MaxPending() != m.maxPending {
			t.Fatalf("seed %d: MaxPending = %d, want %d", seed, eng.MaxPending(), m.maxPending)
		}
	}
}

// TestEngineTokens pins the sequence tokens: Schedule and ScheduleAt
// return strictly increasing numbers, from top-level and nested calls
// alike (both the push and the held-root replacement path), and inside an
// event's dispatch Current equals the number its scheduling returned.
func TestEngineTokens(t *testing.T) {
	e := NewEngine()
	tokens := map[int32]uint64{}
	var last uint64
	next := int32(0)
	schedule := func(delay float64, at bool) {
		var tok uint64
		if at {
			tok = e.ScheduleAt(e.Now()+delay, 0, next)
		} else {
			tok = e.Schedule(delay, 0, next)
		}
		if tok <= last {
			t.Fatalf("token %d after %d: not strictly increasing", tok, last)
		}
		tokens[next], last = tok, tok
		next++
	}
	dispatched := 0
	e.SetHandler(handlerFunc(func(_ EventKind, idx int32) {
		dispatched++
		if got := e.Current(); got != tokens[idx] {
			t.Fatalf("event %d: Current() = %d inside its dispatch, want %d", idx, got, tokens[idx])
		}
		// Schedule zero, one or two follow-ups: the first replaces the held
		// root, the second pushes.
		if next < 60 {
			for k := int32(0); k < idx%3; k++ {
				schedule(float64(idx%4), k == 1)
			}
		}
	}))
	if e.Current() != 0 {
		t.Fatalf("Current() = %d before any dispatch, want 0", e.Current())
	}
	for i := 0; i < 5; i++ {
		schedule(float64(i%2), i%2 == 0)
	}
	e.Run(math.Inf(1))
	if dispatched != len(tokens) {
		t.Fatalf("dispatched %d of %d scheduled events", dispatched, len(tokens))
	}
}
