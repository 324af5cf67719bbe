package output

import (
	"math"
	"testing"

	"hmscs/internal/rng"
)

func TestTransientValidation(t *testing.T) {
	if _, err := NewTransient(0, 1, 0); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := NewTransient(1, 0, 0); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := NewTransient(1, 0.1, 1.5); err == nil {
		t.Fatal("confidence 1.5 accepted")
	}
	tr, err := NewTransient(1, 0.3, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Series()
	if len(s.Slices) != 4 || s.Confidence != 0.95 {
		t.Fatalf("want 4 slices at default 0.95 confidence, got %d at %g", len(s.Slices), s.Confidence)
	}
	if s.Slices[3].T1 != 1 {
		t.Fatalf("final slice must clip at the horizon, got T1=%g", s.Slices[3].T1)
	}
}

func TestTransientSlicing(t *testing.T) {
	tr, err := NewTransient(1, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A sample at exactly the horizon lands in the last slice; samples
	// outside [0, horizon] are ignored; empty slices stay NaN.
	add := func(times, values []float64) {
		b := NewBins(1, 0.25)
		for i, at := range times {
			b.Add(at, values[i])
		}
		if err := tr.AddReplication(b.Sums, b.Counts); err != nil {
			t.Fatal(err)
		}
	}
	add([]float64{0.1, 0.3, 1.0, 1.5, -0.1, math.NaN()}, []float64{1, 2, 3, 99, 99, 99})
	add([]float64{0.1, 0.3, 1.0}, []float64{3, 4, 5})
	s := tr.Series()
	if s.Slices[0].Mean != 2 || s.Slices[0].Reps != 2 || s.Slices[0].Count != 2 {
		t.Fatalf("slice 0: %+v", s.Slices[0])
	}
	if s.Slices[1].Mean != 3 || s.Slices[3].Mean != 4 {
		t.Fatalf("slices 1/3: %+v %+v", s.Slices[1], s.Slices[3])
	}
	if !math.IsNaN(s.Slices[2].Mean) || s.Slices[2].Reps != 0 {
		t.Fatalf("empty slice must stay NaN: %+v", s.Slices[2])
	}
	// Bins over another window are refused, not folded.
	short := NewBins(1, 0.5)
	if err := tr.AddReplication(short.Sums, short.Counts); err == nil {
		t.Fatal("two slices folded into a four-slice estimate")
	}
	if err := tr.AddReplication(make([]float64, 4), make([]int64, 3)); err == nil {
		t.Fatal("four sums and three counts accepted")
	}
}

func TestRecoveryTime(t *testing.T) {
	series := func(means ...float64) *TransientSeries {
		s := &TransientSeries{Width: 1}
		for k, m := range means {
			sl := TransientSlice{T0: float64(k), T1: float64(k + 1), Mean: m, Reps: 2}
			if math.IsNaN(m) {
				sl.Reps = 0 // a dead window: no completions at all
			}
			s.Slices = append(s.Slices, sl)
		}
		return s
	}
	nan := math.NaN()
	if r := RecoveryTime(series(1, 5, 5, 1, 1), 0.5, 2); r != 2.5 {
		t.Fatalf("recovery from t=3 slice after fault at 0.5: want 2.5, got %g", r)
	}
	// The fault's own slice already within the SLO: recovery is immediate.
	if r := RecoveryTime(series(1, 1, 1), 0.5, 2); r != 0 {
		t.Fatalf("want immediate recovery 0, got %g", r)
	}
	// Dead windows (no completions) do not count as recovered.
	if r := RecoveryTime(series(1, nan, nan, 1), 0.5, 2); r != 2.5 {
		t.Fatalf("dead windows must not recover: want 2.5, got %g", r)
	}
	// A relapse restarts the clock; never back by the horizon is +Inf.
	if r := RecoveryTime(series(1, 1, 5), 0.5, 2); !math.IsInf(r, 1) {
		t.Fatalf("relapse at the horizon: want +Inf, got %g", r)
	}
	if r := RecoveryTime(series(5, 5), 0.5, 2); !math.IsInf(r, 1) {
		t.Fatalf("never recovered: want +Inf, got %g", r)
	}
	if r := RecoveryTime(series(5, 1), nan, 2); !math.IsNaN(r) {
		t.Fatalf("no fault: want NaN, got %g", r)
	}
	if r := RecoveryTime(series(5, 1), 0.5, nan); !math.IsNaN(r) {
		t.Fatalf("no SLO: want NaN, got %g", r)
	}
}

// mm1Step simulates a FIFO M/M/1 queue from empty with a piecewise-
// constant arrival rate (lambda1 before tStep, lambda2 after — the rate
// change is exact, not restarted at the step) and returns each job's
// departure time and sojourn time.
func mm1Step(st *rng.Stream, lambda1, lambda2, mu, tStep, horizon float64) (times, sojourns []float64) {
	t, prevDepart := 0.0, 0.0
	for {
		// Piecewise-constant thinning by inversion: spend a unit
		// exponential across the rate segments.
		e := st.ExpRate(1)
		for {
			rate, bound := lambda1, tStep
			if t >= tStep {
				rate, bound = lambda2, math.Inf(1)
			}
			if dt := e / rate; t+dt <= bound {
				t += dt
				break
			}
			e -= (bound - t) * rate
			t = bound
		}
		if t > horizon {
			return times, sojourns
		}
		start := t
		if prevDepart > start {
			start = prevDepart
		}
		depart := start + st.ExpRate(mu)
		prevDepart = depart
		times = append(times, depart)
		sojourns = append(sojourns, depart-t)
	}
}

// TestTransientCoversStepMM1 is the estimator's coverage pin: an M/M/1
// queue whose arrival rate steps from ρ=0.3 to ρ=0.6 mid-horizon has a
// known time-dependent mean sojourn — 1/(µ−λ) of the active regime once
// the regime has relaxed — and the time-sliced 95% Student-t intervals
// must cover it in at least 93% of (trial, slice) checks over pinned
// seeds. The startup slice and the slice right after the step are
// excluded: there the process is mid-relaxation and neither stationary
// value is the truth.
func TestTransientCoversStepMM1(t *testing.T) {
	const (
		mu      = 500.0
		lambda1 = 150.0 // ρ = 0.3, W = 1/350
		lambda2 = 300.0 // ρ = 0.6, W = 1/200
		tStep   = 10.0
		horizon = 20.0
		width   = 1.0
		reps    = 40
		trials  = 12
	)
	w1, w2 := 1/(mu-lambda1), 1/(mu-lambda2)
	checks, covered := 0, 0
	for trial := 0; trial < trials; trial++ {
		tr, err := NewTransient(horizon, width, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		st := rng.NewStream(uint64(1000 + trial))
		for r := 0; r < reps; r++ {
			times, sojourns := mm1Step(st.Split(), lambda1, lambda2, mu, tStep, horizon)
			b := NewBins(horizon, width)
			for i, at := range times {
				b.Add(at, sojourns[i])
			}
			if err := tr.AddReplication(b.Sums, b.Counts); err != nil {
				t.Fatal(err)
			}
		}
		for k, sl := range tr.Series().Slices {
			// Skip the startup slice and the first post-step slice: the
			// M/M/1 relaxation times at these loads (≈0.01 s and ≈0.04 s)
			// fit inside one slice, so every other slice is stationary.
			if k == 0 || (sl.T0 >= tStep && sl.T0 < tStep+width) {
				continue
			}
			truth := w1
			if sl.T0 >= tStep {
				truth = w2
			}
			if sl.Reps < 2 || math.IsNaN(sl.HalfWidth) {
				t.Fatalf("trial %d slice %d: no interval (%d reps)", trial, k, sl.Reps)
			}
			checks++
			if math.Abs(sl.Mean-truth) <= sl.HalfWidth {
				covered++
			}
		}
	}
	frac := float64(covered) / float64(checks)
	if frac < 0.93 {
		t.Fatalf("time-sliced CI covered the known transient mean in %d/%d = %.1f%% of checks, want >= 93%%",
			covered, checks, frac*100)
	}
	if checks != trials*(20-2) {
		t.Fatalf("expected %d checks, got %d", trials*18, checks)
	}
}
