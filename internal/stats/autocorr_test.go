package stats

import (
	"math"
	"testing"

	"hmscs/internal/rng"
)

func TestAutocorrelationIIDNearZero(t *testing.T) {
	st := rng.NewStream(1)
	sample := make([]float64, 20000)
	for i := range sample {
		sample[i] = st.Float64()
	}
	for _, lag := range []int{1, 5, 20} {
		r, err := Autocorrelation(sample, lag)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r) > 0.03 {
			t.Errorf("lag %d: iid autocorrelation = %v", lag, r)
		}
	}
}

func TestAutocorrelationLagZeroIsOne(t *testing.T) {
	sample := []float64{1, 3, 2, 5, 4, 6}
	r, err := Autocorrelation(sample, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Fatalf("lag-0 autocorrelation = %v", r)
	}
}

func TestAutocorrelationAR1(t *testing.T) {
	// AR(1) with coefficient phi has lag-k autocorrelation phi^k.
	st := rng.NewStream(2)
	const phi = 0.8
	sample := make([]float64, 50000)
	x := 0.0
	for i := range sample {
		x = phi*x + st.Float64() - 0.5
		sample[i] = x
	}
	r1, err := Autocorrelation(sample, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1-phi) > 0.03 {
		t.Fatalf("AR(1) lag-1 = %v, want about %v", r1, phi)
	}
	r3, err := Autocorrelation(sample, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r3-math.Pow(phi, 3)) > 0.05 {
		t.Fatalf("AR(1) lag-3 = %v, want about %v", r3, math.Pow(phi, 3))
	}
}

func TestAutocorrelationErrors(t *testing.T) {
	if _, err := Autocorrelation([]float64{1, 2}, -1); err == nil {
		t.Error("negative lag accepted")
	}
	if _, err := Autocorrelation([]float64{1, 2}, 5); err == nil {
		t.Error("lag beyond series accepted")
	}
	if _, err := Autocorrelation([]float64{3, 3, 3, 3}, 1); err == nil {
		t.Error("constant series accepted")
	}
}

func TestEffectiveSampleSize(t *testing.T) {
	st := rng.NewStream(3)
	// IID: ESS close to n.
	iid := make([]float64, 5000)
	for i := range iid {
		iid[i] = st.Float64()
	}
	ess, err := EffectiveSampleSize(iid)
	if err != nil {
		t.Fatal(err)
	}
	if ess < 3000 {
		t.Fatalf("iid ESS = %v of 5000", ess)
	}
	// Strongly correlated AR(1): ESS much smaller than n.
	ar := make([]float64, 5000)
	x := 0.0
	for i := range ar {
		x = 0.95*x + st.Float64() - 0.5
		ar[i] = x
	}
	essAR, err := EffectiveSampleSize(ar)
	if err != nil {
		t.Fatal(err)
	}
	if essAR > ess/5 {
		t.Fatalf("correlated ESS %v not far below iid %v", essAR, ess)
	}
	if _, err := EffectiveSampleSize([]float64{1, 2, 3}); err == nil {
		t.Error("tiny series accepted")
	}
}
