package analytic

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hmscs/internal/core"
	"hmscs/internal/network"
)

// scaledTo returns a copy of cfg with every cluster's rate scaled so that
// the first centre to saturate does so at generation-rate scale edge.
func scaledTo(t *testing.T, cfg *core.Config, edge float64) *core.Config {
	t.Helper()
	m, err := newModel(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.load(1, queueLen{})
	sp := m.muICN2 / m.lamI2
	for _, r := range m.runs {
		sp = min(sp, r.muI1/r.lamI1, r.muE1/r.lamE1)
	}
	out := withLayout(cfg, slices.Clone(cfg.Clusters))
	for i := range out.Clusters {
		out.Clusters[i].Lambda *= sp / edge
	}
	return out
}

// TestFixedPointReplaysBisection is the replay's property test: on seeded
// random heterogeneous systems of 1 to 40 clusters, a quarter of them
// grown past 4000 processors, blocking and non-blocking, with rates
// scaled so that the saturation edge s* falls anywhere from 0.01 to 100
// (roots far past, near and below saturation) or within a hair of s = 1,
// every entry point (M/G/1 at SCV 0, 0.5 and 2.5, locality from 0 to 1)
// must agree with the plain bisection of reference_test.go bit for bit,
// Iterations included.
func TestFixedPointReplaysBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	n := 4000
	if testing.Short() {
		n = 400
	}
	scvs := []float64{0, 0.5, 2.5}
	for k := range n {
		cfg := randomHeterogeneous(rng, 1+rng.Intn(40))
		if k%4 == 0 {
			// Past 4000 processors, where a near-pole queue length is
			// largest against N.
			grow := 4000/cfg.TotalNodes() + 1 + rng.Intn(2)
			for i := range cfg.Clusters {
				cfg.Clusters[i].Nodes *= grow
			}
		}
		edge := math.Pow(10, -2+4*rng.Float64())
		if k%8 == 1 {
			edge = 1 + (rng.Float64()-0.5)*1e-9
		}
		cfg = scaledTo(t, cfg, edge)
		locality := rng.Float64()
		if rng.Intn(4) == 0 {
			locality = float64(rng.Intn(2))
		}
		checkAllEntryPoints(t, cfg, []float64{scvs[k%len(scvs)]}, []float64{locality})
	}
}

// planSpaceConfigs returns the capacity planner's whole default design
// space (plan.DefaultSpace and plan.Enumerate, copied here because plan
// imports this package) at base rate lambda: every layout × ICN1 × ECN1 ×
// ICN2 × architecture × headroom.
func planSpaceConfigs(lambda float64) []*core.Config {
	layouts := [][]int{{32, 16, 8, 8}, {64, 32, 32}}
	for _, c := range []int{2, 4, 8, 16, 32} {
		for _, n := range []int{4, 8, 16, 32} {
			layouts = append(layouts, slices.Repeat([]int{n}, c))
		}
	}
	icn1 := []network.Technology{network.GigabitEthernet, network.Myrinet, network.Infiniband}
	ecn := []network.Technology{network.FastEthernet, network.GigabitEthernet}
	var out []*core.Config
	for _, layout := range layouts {
		for _, i1 := range icn1 {
			for _, e1 := range ecn {
				for _, i2 := range ecn {
					for _, arch := range []network.Architecture{network.NonBlocking, network.Blocking} {
						for _, h := range []float64{1, 1.25, 1.5} {
							cfg := &core.Config{ICN2: i2, Arch: arch, Switch: network.PaperSwitch, MessageBytes: 1024}
							for _, n := range layout {
								cfg.Clusters = append(cfg.Clusters, core.Cluster{Nodes: n, Lambda: lambda * h, ICN1: i1, ECN1: e1})
							}
							out = append(out, cfg)
						}
					}
				}
			}
		}
	}
	return out
}

// meanEvaluations returns the mean number of L(s) evaluations fixedPoint
// spends per solve over cfgs, the s = 1 probe included.
func meanEvaluations(t *testing.T, cfgs []*core.Config, ql queueLen) float64 {
	t.Helper()
	total := 0
	var res Result
	for _, cfg := range cfgs {
		m, err := newModel(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.solve(&res, ql); err != nil {
			t.Fatal(err)
		}
		total += m.evals
	}
	return float64(total) / float64(len(cfgs))
}

// TestFixedPointEvaluations guards the bracket's payoff: over the
// planner's default space at λ = 100 a plain bisection evaluates L(s) 41
// times per solve; the bracket and replay must average at most 13.
func TestFixedPointEvaluations(t *testing.T) {
	cfgs := planSpaceConfigs(100)
	if len(cfgs) != 1584 {
		t.Fatalf("%d configurations, want the default space's 1584", len(cfgs))
	}
	mean := meanEvaluations(t, cfgs, queueLen{})
	t.Logf("λ=100: %.2f evaluations per solve; default λ: %.2f", mean,
		meanEvaluations(t, planSpaceConfigs(core.PaperLambda), queueLen{}))
	if mean > 13 {
		t.Fatalf("%.2f L(s) evaluations per solve, want at most 13", mean)
	}
}

// TestReplayMarginCoversRoundingGlitches checks replayMargin's premise on
// seeded systems of one to six clusters, where the inbound subtraction's
// rounding shows most. Near each root the computed g(L(s)) does rise with
// s between some points a few ulps apart, so a bracket end alone cannot
// decide a midpoint right next to it. Every such rise must be between
// points closer than the margin, or (a single cluster's noise) no larger
// than it.
func TestReplayMarginCoversRoundingGlitches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	glitches := 0
	for range 2000 {
		cfg := scaledTo(t, randomHeterogeneous(rng, 1+rng.Intn(6)), math.Pow(10, -1+2*rng.Float64()))
		ql := queueLen{mg1: rng.Intn(2) == 0, scv: 2 * rng.Float64()}
		m, err := newModel(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		if err := m.solve(&res, ql); err != nil {
			t.Fatal(err)
		}
		margin := m.replayMargin(ql)
		for range 40 {
			s0 := res.Scale * (1 + (rng.Float64()-0.5)*1e-9)
			s1 := s0
			for range 1 + rng.Intn(8) {
				s1 = math.Nextafter(s1, 2)
			}
			l0, _, _ := m.eval(s0, ql)
			l1, _, _ := m.eval(s1, ql)
			if rise := m.g(l1) - m.g(l0); rise > 0 {
				glitches++
				if s1-s0 >= margin && rise > margin {
					t.Fatalf("%v: g(L(s)) rises by %g from s=%v to %v, margin %g", cfg, rise, s0, s1, margin)
				}
			}
		}
	}
	if glitches == 0 {
		t.Fatal("g(L(s)) never rose with s: the test no longer reaches the rounding the margin covers")
	}
	t.Logf("%d rises of g(L(s)) between neighbouring points", glitches)
}
