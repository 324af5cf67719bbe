package queueing

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestMM1KnownValues(t *testing.T) {
	q, err := NewMM1(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if q.Rho() != 0.75 {
		t.Fatalf("rho = %v", q.Rho())
	}
	w, err := q.W()
	if err != nil {
		t.Fatal(err)
	}
	if w != 1.0 { // 1/(4-3)
		t.Fatalf("W = %v, want 1", w)
	}
	l, err := q.L()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-3) > 1e-12 { // rho/(1-rho) = 3
		t.Fatalf("L = %v, want 3", l)
	}
}

func TestMM1LittlesLaw(t *testing.T) {
	q, _ := NewMM1(2.5, 7)
	w, _ := q.W()
	l, _ := q.L()
	if math.Abs(l-q.Lambda*w) > 1e-12 {
		t.Fatalf("Little's law violated: L=%v, lambda*W=%v", l, q.Lambda*w)
	}
}

func TestMM1Unstable(t *testing.T) {
	for _, lam := range []float64{4, 5} {
		q, err := NewMM1(lam, 4)
		if err != nil {
			t.Fatal(err)
		}
		if q.Stable() {
			t.Fatalf("lambda=%v mu=4 should be unstable", lam)
		}
		if _, err := q.W(); !errors.Is(err, ErrUnstable) {
			t.Fatalf("W error = %v, want ErrUnstable", err)
		}
		if _, err := q.L(); !errors.Is(err, ErrUnstable) {
			t.Fatalf("L error = %v, want ErrUnstable", err)
		}
	}
}

func TestMM1BadInputs(t *testing.T) {
	if _, err := NewMM1(-1, 2); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := NewMM1(1, 0); err == nil {
		t.Error("zero mu accepted")
	}
	if _, err := NewMM1(math.NaN(), 2); err == nil {
		t.Error("NaN lambda accepted")
	}
	if _, err := NewMM1(1, math.Inf(1)); err == nil {
		t.Error("infinite mu accepted")
	}
}

func TestMG1ReducesToMM1(t *testing.T) {
	// With SCV=1 the P-K formula must agree with M/M/1.
	mm1, _ := NewMM1(3, 4)
	mg1, err := NewMG1(3, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := mm1.W()
	w2, _ := mg1.W()
	if math.Abs(w1-w2) > 1e-12 {
		t.Fatalf("M/G/1 with SCV=1 gives W=%v, M/M/1 gives %v", w2, w1)
	}
}

func TestMD1HalvesWaiting(t *testing.T) {
	// Deterministic service halves the queueing delay relative to M/M/1.
	mm1, _ := NewMG1(3, 0.25, 1)
	md1, _ := NewMG1(3, 0.25, 0)
	wq1, _ := mm1.Wq()
	wqD, _ := md1.Wq()
	if math.Abs(wqD-wq1/2) > 1e-12 {
		t.Fatalf("M/D/1 Wq = %v, want half of %v", wqD, wq1)
	}
}

func TestMG1Unstable(t *testing.T) {
	q, _ := NewMG1(5, 0.25, 1) // rho = 1.25
	if q.Stable() {
		t.Fatal("should be unstable")
	}
	if _, err := q.Wq(); !errors.Is(err, ErrUnstable) {
		t.Fatalf("err = %v", err)
	}
}

func TestMG1BadInputs(t *testing.T) {
	if _, err := NewMG1(-1, 1, 1); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := NewMG1(1, 0, 1); err == nil {
		t.Error("zero mean accepted")
	}
	if _, err := NewMG1(1, 1, -0.5); err == nil {
		t.Error("negative SCV accepted")
	}
}

func TestQuickMM1WPositiveAndMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		mu := float64(b%1000) + 1
		lam := float64(a) / 70000 * mu // always below mu
		q, err := NewMM1(lam, mu)
		if err != nil {
			return false
		}
		w, err := q.W()
		if err != nil {
			return false
		}
		// W must be at least the bare service time and finite.
		return w >= 1/mu-1e-12 && !math.IsInf(w, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLittlesLawMG1(t *testing.T) {
	f := func(a, b, c uint16) bool {
		mean := float64(b%100)/100 + 0.01
		scv := float64(c % 4)
		lam := float64(a) / 70000 / mean * 0.95
		q, err := NewMG1(lam, mean, scv)
		if err != nil {
			return false
		}
		w, err1 := q.W()
		l, err2 := q.L()
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(l-lam*w) < 1e-9*(1+l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
