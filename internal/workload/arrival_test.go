package workload

import (
	"math"
	"strings"
	"testing"

	"hmscs/internal/rng"
)

// TestPoissonSourceMatchesExpRate pins the bit-compatibility contract: the
// Poisson source must draw exactly the variate the pre-subsystem simulator
// drew (one ExpRate call on the same stream).
func TestPoissonSourceMatchesExpRate(t *testing.T) {
	a := rng.NewStream(99)
	b := rng.NewStream(99)
	src := Poisson{}.NewSource(123.5, 0)
	for i := 0; i < 1000; i++ {
		if got, want := src.Next(a), b.ExpRate(123.5); got != want {
			t.Fatalf("draw %d: source %v != ExpRate %v", i, got, want)
		}
	}
}

// sampleMean draws n gaps and returns their mean and SCV.
func sampleMean(t *testing.T, arr Arrival, rate float64, n int) (mean, scv float64) {
	t.Helper()
	st := rng.NewStream(7)
	src := arr.NewSource(rate, 0)
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		g := src.Next(st)
		if !(g >= 0) || math.IsInf(g, 0) {
			t.Fatalf("%s: bad gap %v", arr.Name(), g)
		}
		sum += g
		sumSq += g * g
	}
	mean = sum / float64(n)
	scv = (sumSq/float64(n) - mean*mean) / (mean * mean)
	return mean, scv
}

// TestArrivalsPreserveMeanRate: every process must offer the configured
// mean load — the property that makes burstiness comparisons fair.
func TestArrivalsPreserveMeanRate(t *testing.T) {
	mmpp, err := NewMMPP(10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	onoff, err := NewMMPP(math.Inf(1), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	pareto25, err := NewPareto(2.5)
	if err != nil {
		t.Fatal(err)
	}
	pareto15, err := NewPareto(1.5)
	if err != nil {
		t.Fatal(err)
	}
	weibull, err := NewWeibull(0.5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		arr Arrival
		tol float64
	}{
		{Poisson{}, 0.02},
		// The staggered first gap perturbs the finite-sample mean by
		// O(1/n).
		{Periodic{}, 1e-4},
		{mmpp, 0.03},
		{onoff, 0.03},
		{pareto25, 0.03},
		// α=1.5 has infinite variance: the sample mean converges at the
		// slow n^{-1/3} stable-law rate, so the pinned-seed tolerance is
		// loose.
		{pareto15, 0.15},
		{weibull, 0.03},
	}
	const rate = 400.0
	for _, tc := range cases {
		mean, _ := sampleMean(t, tc.arr, rate, 300000)
		if rel := math.Abs(mean-1/rate) * rate; rel > tc.tol {
			t.Errorf("%s: mean gap %v vs want %v (rel err %.3f > %.3f)",
				tc.arr.Name(), mean, 1/rate, rel, tc.tol)
		}
	}
}

// TestPeriodicStagger: every source's first gap must land inside one
// period (a regression test — an integer/fraction mix-up here once delayed
// high-numbered sources by hundreds of periods), and subsequent gaps must
// be exactly the period.
func TestPeriodicStagger(t *testing.T) {
	const rate = 100.0
	gap := 1 / rate
	seen := make(map[float64]bool)
	for src := 0; src < 64; src++ {
		s := Periodic{}.NewSource(rate, src)
		first := s.Next(nil)
		if first < 0 || first >= gap {
			t.Fatalf("src %d first gap %v outside [0, %v)", src, first, gap)
		}
		seen[first] = true
		for i := 0; i < 3; i++ {
			if g := s.Next(nil); g != gap {
				t.Fatalf("src %d steady gap %v != %v", src, g, gap)
			}
		}
	}
	if len(seen) < 60 {
		t.Fatalf("only %d distinct offsets across 64 sources", len(seen))
	}
}

// TestMMPPSCVMatchesEmpirical validates the closed-form phase-type SCV
// against the sampled interarrival series.
func TestMMPPSCVMatchesEmpirical(t *testing.T) {
	for _, tc := range []struct{ ratio, frac float64 }{
		{10, 0.1}, {5, 0.5}, {math.Inf(1), 0.25},
	} {
		m, err := NewMMPP(tc.ratio, tc.frac)
		if err != nil {
			t.Fatal(err)
		}
		want := m.SCV()
		if !(want > 1) {
			t.Fatalf("mmpp(r=%g,f=%g): SCV %v not > 1", tc.ratio, tc.frac, want)
		}
		_, got := sampleMean(t, m, 250, 400000)
		if rel := math.Abs(got-want) / want; rel > 0.05 {
			t.Errorf("mmpp(r=%g,f=%g): empirical SCV %v vs formula %v (rel %.3f)",
				tc.ratio, tc.frac, got, want, rel)
		}
	}
}

// TestMMPPDegeneratesToPoisson: burst ratio 1 removes the modulation, so
// the formula SCV must be 1.
func TestMMPPDegeneratesToPoisson(t *testing.T) {
	m, err := NewMMPP(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if scv := m.SCV(); math.Abs(scv-1) > 1e-9 {
		t.Fatalf("ratio-1 MMPP SCV = %v, want 1", scv)
	}
}

func TestMMPPRejectsBadParams(t *testing.T) {
	for _, tc := range []struct{ r, f float64 }{
		{0.5, 0.1}, {10, 0}, {10, 1}, {10, -0.2}, {math.NaN(), 0.5},
	} {
		if _, err := NewMMPP(tc.r, tc.f); err == nil {
			t.Errorf("NewMMPP(%g,%g) accepted", tc.r, tc.f)
		}
	}
}

// TestRenewalSCVFormulas pins the closed-form SCVs of the heavy-tailed
// families against known values.
func TestRenewalSCVFormulas(t *testing.T) {
	if p, _ := NewPareto(1.5); !math.IsInf(p.SCV(), 1) {
		t.Error("Pareto α=1.5 should report infinite SCV")
	}
	if p, _ := NewPareto(3); math.Abs(p.SCV()-1.0/3) > 1e-12 {
		t.Errorf("Pareto α=3 SCV = %v, want 1/3", p.SCV())
	}
	// Weibull k=1 is exponential.
	if w, _ := NewWeibull(1); math.Abs(w.SCV()-1) > 1e-9 {
		t.Errorf("Weibull k=1 SCV = %v, want 1", w.SCV())
	}
	// Weibull k=0.5: Γ(5)/Γ(3)² − 1 = 24/4 − 1 = 5.
	if w, _ := NewWeibull(0.5); math.Abs(w.SCV()-5) > 1e-9 {
		t.Errorf("Weibull k=0.5 SCV = %v, want 5", w.SCV())
	}
	if _, err := NewPareto(1); err == nil {
		t.Error("Pareto α=1 accepted (no mean)")
	}
	if _, err := NewWeibull(0); err == nil {
		t.Error("Weibull k=0 accepted")
	}
}

// TestTraceReplay checks rescaling, deterministic replay, RNG-freeness and
// per-source staggering.
func TestTraceReplay(t *testing.T) {
	tr, err := NewTrace([]float64{0, 1, 3, 6, 10}) // gaps 1,2,3,4; mean 2.5
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	// At rate 1 the mean gap must rescale to 1: gaps become 0.4,0.8,1.2,1.6.
	src := tr.NewSource(1, 0)
	want := []float64{0.4, 0.8, 1.2, 1.6, 0.4} // cycles
	for i, w := range want {
		// nil stream: replay must not draw random numbers.
		if g := src.Next(nil); math.Abs(g-w) > 1e-12 {
			t.Fatalf("gap %d = %v, want %v", i, g, w)
		}
	}
	// Source 2 starts two gaps in.
	src2 := tr.NewSource(1, 2)
	if g := src2.Next(nil); math.Abs(g-1.2) > 1e-12 {
		t.Fatalf("staggered source first gap = %v, want 1.2", g)
	}
	// Empirical SCV of {1,2,3,4}: var 1.25, mean 2.5 → 0.2.
	if math.Abs(tr.SCV()-0.2) > 1e-12 {
		t.Fatalf("trace SCV = %v, want 0.2", tr.SCV())
	}
}

func TestTraceRejectsDegenerate(t *testing.T) {
	for _, ts := range [][]float64{
		{}, {1}, {1, 1}, {2, 1}, {0, math.NaN()}, {0, math.Inf(1)},
	} {
		if _, err := NewTrace(ts); err == nil {
			t.Errorf("NewTrace(%v) accepted", ts)
		}
	}
}

func TestReadTrace(t *testing.T) {
	in := "# comment\n0.0\n1.5, ignored\n\n3.25\n"
	ts, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 || ts[0] != 0 || ts[1] != 1.5 || ts[2] != 3.25 {
		t.Fatalf("parsed %v", ts)
	}
	// Unsorted input is sorted.
	ts, err = ReadTrace(strings.NewReader("5\n1\n3\n"))
	if err != nil || ts[0] != 1 || ts[2] != 5 {
		t.Fatalf("sort failed: %v %v", ts, err)
	}
	if _, err := ReadTrace(strings.NewReader("abc\n")); err == nil {
		t.Error("bad timestamp accepted")
	}
}

// TestGeneratorNormalized: the zero value must become the paper's workload.
func TestGeneratorNormalized(t *testing.T) {
	g := Generator{}.Normalized()
	if g.Arrival.Name() != "poisson" {
		t.Errorf("default arrival = %s", g.Arrival.Name())
	}
	if g.Pattern.Name() != "uniform" {
		t.Errorf("default pattern = %s", g.Pattern.Name())
	}
	// Set axes survive.
	m, _ := NewMMPP(10, 0.1)
	g2 := Generator{Arrival: m, Pattern: Hotspot{Node: 0, Fraction: 0.5}}.Normalized()
	if g2.Arrival != Arrival(m) || g2.Pattern.Name() != "hotspot(node=0,p=0.50)" {
		t.Error("Normalized overwrote set axes")
	}
	srcs := g2.Sources(nil, []float64{100, 200})
	if len(srcs) != 2 {
		t.Fatalf("Sources built %d", len(srcs))
	}
	// A reused slice keeps its storage and holds only the new sources.
	again := g2.Sources(srcs, []float64{300})
	if len(again) != 1 || &again[0] != &srcs[0] {
		t.Fatalf("Sources into a reused slice: len %d, same storage %v", len(again), &again[0] == &srcs[0])
	}
}

// TestSourcesShareStatelessValues: consecutive equal-rate sources of a
// stateless process share one value and draw exactly what separately built
// sources draw; stateful sources stay one per traffic source.
func TestSourcesShareStatelessValues(t *testing.T) {
	p, _ := NewPareto(1.5)
	w, _ := NewWeibull(0.5)
	m, _ := NewMMPP(10, 0.1)
	rates := []float64{100, 100, 100, 250, 250, 100}
	for _, a := range []Arrival{Poisson{}, Periodic{}, m, p, w} {
		g := Generator{Arrival: a}.Normalized()
		srcs := g.Sources(nil, rates)
		a1, a2 := rng.NewStream(5), rng.NewStream(5)
		for i, r := range rates {
			fresh := a.NewSource(r, i)
			for k := 0; k < 20; k++ {
				if x, y := srcs[i].Next(a1), fresh.Next(a2); math.Float64bits(x) != math.Float64bits(y) {
					t.Fatalf("%s source %d draw %d: %v, fresh source %v", a.Name(), i, k, x, y)
				}
			}
		}
	}
	g := Generator{}.Normalized()
	if n := testing.AllocsPerRun(10, func() { g.Sources(make([]Source, 0, 256), make([]float64, 256)) }); n > 3 {
		t.Fatalf("256 equal-rate Poisson sources took %v allocations", n)
	}
}

// TestArrivalNames: every process names itself for reports.
func TestArrivalNames(t *testing.T) {
	m, _ := NewMMPP(10, 0.1)
	p, _ := NewPareto(1.5)
	w, _ := NewWeibull(0.5)
	tr, _ := NewTrace([]float64{0, 1, 2})
	for _, a := range []Arrival{Poisson{}, Periodic{}, m, p, w, tr} {
		if a.Name() == "" {
			t.Errorf("%T has empty name", a)
		}
	}
}
