package sim

import (
	"math"
	"slices"
	"testing"
)

// TestLifecycleTransitions drives one source through the transitions a
// timeline can cause. Each row is a sequence of operations and what each
// reports: arm schedules a generation and records its token, fire
// dispatches the pending event (fire-open as an open-loop source), and
// fail, repair and release are the Lifecycle calls (arm and fail report
// Down).
func TestLifecycleTransitions(t *testing.T) {
	rows := []struct {
		name string
		ops  []string
		want []bool
	}{
		{"live generation blocks until released",
			[]string{"arm", "fire", "repair", "release"}, []bool{false, true, false, true}},
		{"open-loop generation does not block",
			[]string{"arm", "fire-open", "fail", "repair"}, []bool{false, true, true, true}},
		{"fail while thinking voids the pending event",
			[]string{"arm", "fail", "fire", "repair"}, []bool{false, true, false, true}},
		{"fail while blocked: the release does not re-arm",
			[]string{"arm", "fire", "fail", "release", "repair"}, []bool{false, true, true, false, true}},
		{"repair while blocked waits for the release",
			[]string{"arm", "fire", "fail", "repair", "release"}, []bool{false, true, true, false, true}},
		{"a voided event stays void after a repair and re-arm",
			[]string{"arm", "fail", "repair", "arm", "fire", "fire"}, []bool{false, true, true, false, false, true}},
	}
	for _, r := range rows {
		eng := NewEngine()
		var l Lifecycle
		l.Reset(eng, 1)
		var pending []uint64 // tokens still in the event set, in order
		var got []bool
		for _, op := range r.ops {
			var res bool
			switch op {
			case "arm":
				tok := eng.Schedule(1, 0, 0)
				l.Armed(0, tok)
				pending = append(pending, tok)
				res = l.Down(0)
			case "fire", "fire-open":
				// Dispatch exactly the oldest pending event.
				eng.SetHandler(handlerFunc(func(EventKind, int32) {
					res = l.Fire(0, op == "fire")
					eng.Stop()
				}))
				eng.Run(math.Inf(1))
				if eng.Current() != pending[0] {
					t.Fatalf("%s: dispatched token %d, want %d", r.name, eng.Current(), pending[0])
				}
				pending = pending[1:]
			case "fail":
				l.Fail(0)
				res = l.Down(0)
			case "repair":
				res = l.Repair(0)
			case "release":
				res = l.Release(0)
			}
			got = append(got, res)
		}
		if !slices.Equal(got, r.want) {
			t.Errorf("%s: %v reported %v, want %v", r.name, r.ops, got, r.want)
		}
	}
}
