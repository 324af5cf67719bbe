package sim

// Lifecycle is the scenario state of a set of traffic sources, shared by
// the cluster and the switch-level simulator. Each source is up or down,
// is blocked while its closed-loop message is in flight, and holds the
// token of its one pending generation event (zero when none is pending).
// A failure voids the pending event by zeroing the token; the event
// still fires and Fire rejects it. Stationary runs do not use it.
type Lifecycle struct {
	eng *Engine
	src []sourceState
}

type sourceState struct {
	due     uint64
	down    bool
	blocked bool
}

// Reset sizes l for n sources, all up and idle, whose events run on eng.
func (l *Lifecycle) Reset(eng *Engine, n int) {
	l.eng = eng
	l.src = zeroed(l.src, n)
}

// Down reports whether source p is down.
func (l *Lifecycle) Down(p int) bool { return l.src[p].down }

// Armed records tok as source p's pending generation event.
func (l *Lifecycle) Armed(p int, tok uint64) { l.src[p].due = tok }

// Fire reports whether the generation event being dispatched for p is its
// pending one rather than an event a failure voided. A live event is
// consumed, and a closed-loop source blocks until Release.
func (l *Lifecycle) Fire(p int, closed bool) bool {
	s := &l.src[p]
	if s.due != l.eng.Current() {
		return false
	}
	s.due, s.blocked = 0, closed
	return true
}

// Release unblocks p once its in-flight message is delivered or dropped,
// and reports whether p should re-arm now: a source that went down in
// flight re-arms at its repair instead.
func (l *Lifecycle) Release(p int) bool {
	l.src[p].blocked = false
	return !l.src[p].down
}

// Fail takes p down and voids its pending generation event. An in-flight
// message carries on; its delivery releases p without re-arming it.
func (l *Lifecycle) Fail(p int) {
	l.src[p].down, l.src[p].due = true, 0
}

// Repair brings p back up and reports whether it should re-arm now: it
// should unless its in-flight message is still out, whose Release
// re-arms it.
func (l *Lifecycle) Repair(p int) bool {
	s := &l.src[p]
	s.down = false
	return s.due == 0 && !s.blocked
}
