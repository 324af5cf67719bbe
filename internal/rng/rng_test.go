package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewStreamDeterministic(t *testing.T) {
	a := NewStream(42)
	b := NewStream(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: streams with equal seeds diverged: %d != %d", i, x, y)
		}
	}
}

func TestNewStreamSeedsDiffer(t *testing.T) {
	a := NewStream(1)
	b := NewStream(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical draws out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewStream(7)
	child := parent.Split()
	// The child must not replay the parent's sequence.
	p := make([]uint64, 50)
	c := make([]uint64, 50)
	for i := range p {
		p[i] = parent.Uint64()
		c[i] = child.Uint64()
	}
	equal := 0
	for i := range p {
		if p[i] == c[i] {
			equal++
		}
	}
	if equal > 0 {
		t.Fatalf("split child replays parent: %d equal draws", equal)
	}
}

// TestSplitIntoMatchesSplit pins the value split to the pointer split: the
// same child state, the same parent advance, and no allocation.
func TestSplitIntoMatchesSplit(t *testing.T) {
	a, b := NewStream(11), NewStream(11)
	var dst Stream
	for i := 0; i < 8; i++ {
		child := a.Split()
		b.SplitInto(&dst)
		if *child != dst {
			t.Fatalf("split %d: SplitInto state %v, Split state %v", i, dst.s, child.s)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("SplitInto advanced the parent differently from Split")
	}
	if n := testing.AllocsPerRun(100, func() { b.SplitInto(&dst) }); n != 0 {
		t.Fatalf("SplitInto allocated %v times per call", n)
	}
}

func TestFloat64Range(t *testing.T) {
	st := NewStream(3)
	for i := 0; i < 100000; i++ {
		u := st.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", u)
		}
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	st := NewStream(4)
	for i := 0; i < 100000; i++ {
		if u := st.Float64Open(); u <= 0 || u >= 1 {
			t.Fatalf("Float64Open out of (0,1): %v", u)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	st := NewStream(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += st.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want about 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	st := NewStream(6)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := st.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	st := NewStream(8)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[st.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d: count %d deviates from expected %v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	st := NewStream(9)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			st.Intn(n)
		}()
	}
}

func TestExpMean(t *testing.T) {
	st := NewStream(10)
	const n = 200000
	mean := 2.5
	sum := 0.0
	for i := 0; i < n; i++ {
		v := st.Exp(mean)
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("Exp mean = %v, want about %v", got, mean)
	}
}

func TestExpRateMatchesExp(t *testing.T) {
	a := NewStream(11)
	b := NewStream(11)
	for i := 0; i < 1000; i++ {
		x := a.Exp(4.0)
		y := b.ExpRate(0.25)
		if math.Abs(x-y) > 1e-12*math.Max(x, 1) {
			t.Fatalf("Exp(4) and ExpRate(0.25) diverged: %v vs %v", x, y)
		}
	}
}

func TestExpPanicsOnBadMean(t *testing.T) {
	st := NewStream(12)
	for _, m := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Exp(%v) did not panic", m)
				}
			}()
			st.Exp(m)
		}()
	}
}

func TestErlangMeanAndVariance(t *testing.T) {
	st := NewStream(13)
	const n = 100000
	k, mean := 4, 2.0
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := st.Erlang(k, mean)
		sum += v
		sumSq += v * v
	}
	m := sum / n
	variance := sumSq/n - m*m
	wantVar := mean * mean / float64(k)
	if math.Abs(m-mean)/mean > 0.02 {
		t.Fatalf("Erlang mean = %v, want %v", m, mean)
	}
	if math.Abs(variance-wantVar)/wantVar > 0.1 {
		t.Fatalf("Erlang variance = %v, want about %v", variance, wantVar)
	}
}

func TestUniformRange(t *testing.T) {
	st := NewStream(14)
	for i := 0; i < 10000; i++ {
		v := st.Uniform(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Uniform(-3,7) = %v out of range", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	st := NewStream(15)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := st.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestMul64AgainstBig(t *testing.T) {
	// Spot-check the 128-bit multiply against values with known products.
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestQuickIntnInRange(t *testing.T) {
	st := NewStream(99)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := st.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExpPositive(t *testing.T) {
	st := NewStream(100)
	f := func(m uint32) bool {
		mean := float64(m%10000)/100 + 0.01
		return st.Exp(mean) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
