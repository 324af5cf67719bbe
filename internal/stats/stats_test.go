package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"hmscs/internal/rng"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.Variance()) {
		t.Fatal("empty Welford should report NaN moments")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("count = %d", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", w.Mean())
	}
	// Population variance of this classic sample is 4; unbiased is 32/7.
	if math.Abs(w.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	st := rng.NewStream(1)
	var all, a, b Welford
	for i := 0; i < 1000; i++ {
		x := st.Float64()*10 - 5
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.Count() != all.Count() {
		t.Fatalf("merged count = %d, want %d", a.Count(), all.Count())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-10 {
		t.Fatalf("merged mean = %v, want %v", a.Mean(), all.Mean())
	}
	if math.Abs(a.Variance()-all.Variance()) > 1e-9 {
		t.Fatalf("merged variance = %v, want %v", a.Variance(), all.Variance())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatal("merged min/max mismatch")
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	mean := a.Mean()
	a.Merge(&b) // merging empty must be a no-op
	if a.Mean() != mean || a.Count() != 2 {
		t.Fatal("merge with empty changed state")
	}
	b.Merge(&a) // merging into empty must copy
	if b.Mean() != mean || b.Count() != 2 {
		t.Fatal("merge into empty did not copy")
	}
}

// TestWelfordJSONExact: an accumulator's JSON is its WelfordState, by
// value or by pointer, and decodes to the same state bit for bit,
// signed zero included.
func TestWelfordJSONExact(t *testing.T) {
	var w Welford
	for _, x := range []float64{math.Copysign(0, -1), 1.0 / 3, 5e-324, 2.5e100} {
		w.Add(x)
	}
	want, err := json.Marshal(w.State())
	if err != nil {
		t.Fatal(err)
	}
	byValue, err := json.Marshal(struct{ W Welford }{w})
	if err != nil {
		t.Fatal(err)
	}
	if string(byValue) != `{"W":`+string(want)+`}` {
		t.Fatalf("by value: %s, want the state %s", byValue, want)
	}
	var back Welford
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	a, b := w.State(), back.State()
	for i, pair := range [][2]float64{{a.Mean, b.Mean}, {a.M2, b.M2}, {a.Min, b.Min}, {a.Max, b.Max}} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Errorf("field %d: %v decoded as %v", i, pair[0], pair[1])
		}
	}
	if a.N != b.N {
		t.Errorf("count %d decoded as %d", a.N, b.N)
	}
}

func TestWelfordCI(t *testing.T) {
	var w Welford
	st := rng.NewStream(2)
	for i := 0; i < 10000; i++ {
		w.Add(st.Exp(1.0))
	}
	half := w.CI(0.95)
	if half <= 0 || half > 0.1 {
		t.Fatalf("95%% CI half-width = %v, implausible for 10k exp(1) samples", half)
	}
	if math.Abs(w.Mean()-1) > 3*half {
		t.Fatalf("true mean outside 3x CI: mean=%v half=%v", w.Mean(), half)
	}
}

func TestTimeWeightedMean(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 0) // value 0 from t=0
	tw.Observe(2, 3) // value was 0 during [0,2), now 3
	tw.Observe(5, 1) // value was 3 during [2,5), now 1
	tw.FlushTo(10)   // value 1 during [5,10)
	want := (0*2 + 3*3 + 1*5) / 10.0
	if math.Abs(tw.Mean()-want) > 1e-12 {
		t.Fatalf("time-weighted mean = %v, want %v", tw.Mean(), want)
	}
	if tw.Max() != 3 {
		t.Fatalf("max = %v", tw.Max())
	}
	if tw.Duration() != 10 {
		t.Fatalf("duration = %v", tw.Duration())
	}
}

// TestTimeWeightedBackwardsPanics: an Observe before the last one panics
// with a message naming both times.
func TestTimeWeightedBackwardsPanics(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(5, 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("backwards time did not panic")
		}
		if got, want := fmt.Sprint(r), "stats: TimeWeighted time went backwards: 4.5 < 5"; got != want {
			t.Fatalf("panic text %q, want %q", got, want)
		}
	}()
	tw.Observe(4.5, 2)
}

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829},
		{0.841344746, 1.0},
		{0.025, -1.959964},
	}
	for _, c := range cases {
		got := NormalQuantile(c.p)
		if math.Abs(got-c.want) > 1e-4 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(NormalQuantile(0)) || !math.IsNaN(NormalQuantile(1)) {
		t.Error("quantile at 0 or 1 should be NaN")
	}
}

func TestStudentTQuantile(t *testing.T) {
	// Reference values from standard t tables (two-sided 95% -> p=0.975).
	cases := []struct {
		df   int
		want float64
	}{
		{5, 2.5706}, {10, 2.2281}, {30, 2.0423}, {100, 1.9840},
	}
	for _, c := range cases {
		got := StudentTQuantile(0.975, c.df)
		if math.Abs(got-c.want) > 0.01 {
			t.Errorf("t(0.975, df=%d) = %v, want %v", c.df, got, c.want)
		}
	}
	if g := StudentTQuantile(0.975, 1000); math.Abs(g-1.95996) > 1e-3 {
		t.Errorf("large-df t quantile = %v, want normal 1.96", g)
	}
}

func TestRelError(t *testing.T) {
	if RelError(11, 10) != 0.1 {
		t.Fatalf("RelError(11,10) = %v", RelError(11, 10))
	}
	if RelError(0, 0) != 0 {
		t.Fatal("RelError(0,0) should be 0")
	}
	if !math.IsNaN(RelError(1, 0)) {
		t.Fatal("RelError(1,0) should be NaN")
	}
}

func TestQuickWelfordMeanWithinRange(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		lo, hi := math.Inf(1), math.Inf(-1)
		count := 0
		for _, x := range xs {
			// Skip non-finite inputs and magnitudes where the running-mean
			// delta arithmetic itself overflows float64.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e300 {
				continue
			}
			w.Add(x)
			count++
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if count == 0 {
			return true
		}
		m := w.Mean()
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
