package analytic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hmscs/internal/core"
	"hmscs/internal/network"
)

// randomHeterogeneous draws a seeded heterogeneous configuration with c
// clusters: mixed technologies, unequal sizes and rates, and runs of equal
// consecutive clusters so that shared service rates are exercised too.
func randomHeterogeneous(rng *rand.Rand, c int) *core.Config {
	techs := []network.Technology{network.GigabitEthernet, network.FastEthernet,
		network.Myrinet, network.Infiniband}
	archs := []network.Architecture{network.NonBlocking, network.Blocking}
	ports := []int{4, 8, 16, 24, 48}
	cfg := &core.Config{
		Clusters:     make([]core.Cluster, c),
		ICN2:         techs[rng.Intn(len(techs))],
		Arch:         archs[rng.Intn(len(archs))],
		Switch:       network.Switch{Ports: ports[rng.Intn(len(ports))], Latency: 10e-6 * rng.Float64()},
		MessageBytes: 1 + rng.Intn(4096),
	}
	for i := range cfg.Clusters {
		if i > 0 && rng.Intn(3) == 0 {
			cfg.Clusters[i] = cfg.Clusters[i-1]
			if rng.Intn(2) == 0 {
				// Same networks and size, different rate.
				cfg.Clusters[i].Lambda *= 0.5 + rng.Float64()
			}
			continue
		}
		cfg.Clusters[i] = core.Cluster{
			Nodes:  1 + rng.Intn(48),
			Lambda: math.Pow(10, -1+5*rng.Float64()), // 0.1 to 10⁴ msg/s
			ICN1:   techs[rng.Intn(len(techs))],
			ECN1:   techs[rng.Intn(len(techs))],
		}
	}
	if cfg.TotalNodes() < 2 {
		cfg.Clusters[0].Nodes = 2
	}
	return cfg
}

// firstDiff names the first field where two results differ in any bit,
// per-centre metrics and the iteration count included, or returns "".
func firstDiff(a, b *Result) string {
	ne := func(x, y float64) bool { return math.Float64bits(x) != math.Float64bits(y) }
	switch {
	case ne(a.P, b.P):
		return fmt.Sprintf("P %v vs %v", a.P, b.P)
	case ne(a.Scale, b.Scale):
		return fmt.Sprintf("Scale %v vs %v", a.Scale, b.Scale)
	case a.Iterations != b.Iterations:
		return fmt.Sprintf("Iterations %d vs %d", a.Iterations, b.Iterations)
	case ne(a.MeanLatency, b.MeanLatency):
		return fmt.Sprintf("MeanLatency %v vs %v", a.MeanLatency, b.MeanLatency)
	case ne(a.TotalWaiting, b.TotalWaiting):
		return fmt.Sprintf("TotalWaiting %v vs %v", a.TotalWaiting, b.TotalWaiting)
	case a.Saturated != b.Saturated:
		return fmt.Sprintf("Saturated %v vs %v", a.Saturated, b.Saturated)
	case len(a.Centers) != len(b.Centers):
		return fmt.Sprintf("%d centres vs %d", len(a.Centers), len(b.Centers))
	}
	for i, x := range a.Centers {
		y := b.Centers[i]
		if x.Kind != y.Kind || x.Cluster != y.Cluster || ne(x.Lambda, y.Lambda) ||
			ne(x.Mu, y.Mu) || ne(x.Rho, y.Rho) || ne(x.W, y.W) || ne(x.L, y.L) {
			return fmt.Sprintf("centre %d: %+v vs %+v", i, x, y)
		}
	}
	return ""
}

// checkSame fails the test unless got and want agree bit for bit, or both
// failed with the same error.
func checkSame(t *testing.T, what string, cfg *core.Config, got, want *Result, gotErr, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s on %v: error %v, reference %v", what, cfg, gotErr, wantErr)
	}
	if gotErr == nil {
		if d := firstDiff(got, want); d != "" {
			t.Fatalf("%s on %v differs from the reference: %s", what, cfg, d)
		}
	}
}

// checkAllEntryPoints compares Analyze, AnalyzeSCV, AnalyzeArrival and
// AnalyzeLocality on cfg with the reference evaluation, at every given
// SCV and locality.
func checkAllEntryPoints(t *testing.T, cfg *core.Config, scvs, localities []float64) {
	t.Helper()
	got, gotErr := Analyze(cfg)
	want, wantErr := refAnalyze(cfg)
	checkSame(t, "Analyze", cfg, got, want, gotErr, wantErr)
	for _, scv := range scvs {
		want, wantErr = refAnalyzeSCV(cfg, scv)
		got, gotErr = AnalyzeSCV(cfg, scv)
		checkSame(t, fmt.Sprintf("AnalyzeSCV(%g)", scv), cfg, got, want, gotErr, wantErr)
		got, gotErr = AnalyzeArrival(cfg, scv)
		checkSame(t, fmt.Sprintf("AnalyzeArrival(%g)", scv), cfg, got, want, gotErr, wantErr)
	}
	for _, locality := range localities {
		got, gotErr = AnalyzeLocality(cfg, locality)
		want, wantErr = refAnalyzeLocality(cfg, locality)
		checkSame(t, fmt.Sprintf("AnalyzeLocality(%g)", locality), cfg, got, want, gotErr, wantErr)
	}
}

// withLayout returns a copy of cfg whose clusters are clusters.
func withLayout(cfg *core.Config, clusters []core.Cluster) *core.Config {
	out := *cfg
	out.Clusters = clusters
	return &out
}

// runLayouts returns seeded configurations shaped around the model's runs
// of identical clusters: homogeneous systems of up to 300 clusters, runs
// whose boundary differs in exactly one of λ, ICN1, ECN1 or node count,
// and alternating layouts in which no two neighbours are equal.
func runLayouts(rng *rand.Rand) []*core.Config {
	var out []*core.Config
	for _, c := range []int{1, 2, 7, 64, 300} {
		cfg := randomHeterogeneous(rng, 1)
		cl := cfg.Clusters[0]
		cl.Nodes = 2 + rng.Intn(16)
		out = append(out, withLayout(cfg, slices.Repeat([]core.Cluster{cl}, c)))
	}
	techs := []network.Technology{network.GigabitEthernet, network.FastEthernet,
		network.Myrinet, network.Infiniband}
	other := func(t network.Technology) network.Technology {
		for {
			if o := techs[rng.Intn(len(techs))]; o != t {
				return o
			}
		}
	}
	boundaries := []func(*core.Cluster){
		func(cl *core.Cluster) { cl.Lambda *= 1.5 },
		func(cl *core.Cluster) { cl.ICN1 = other(cl.ICN1) },
		func(cl *core.Cluster) { cl.ECN1 = other(cl.ECN1) },
		func(cl *core.Cluster) { cl.Nodes++ },
	}
	for _, differ := range boundaries {
		cfg := randomHeterogeneous(rng, 1)
		a := cfg.Clusters[0]
		b := a
		differ(&b)
		var layout []core.Cluster
		for _, cl := range []core.Cluster{a, b, a, b} {
			layout = append(layout, slices.Repeat([]core.Cluster{cl}, 1+rng.Intn(40))...)
		}
		out = append(out, withLayout(cfg, layout))
	}
	for _, c := range []int{2, 5, 64, 256} {
		cfg := randomHeterogeneous(rng, 2)
		a := cfg.Clusters[0]
		for i, differ := range boundaries {
			b := a
			differ(&b)
			layout := make([]core.Cluster, c)
			for j := range layout {
				layout[j] = a
				if (j+i)%2 == 1 {
					layout[j] = b
				}
			}
			out = append(out, withLayout(cfg, layout))
		}
	}
	return out
}

// defaultSpaceConfigs returns every layout of the capacity planner's
// default design space (plan.DefaultSpace, copied here because plan
// imports this package) at both architectures, cycling through its
// technologies.
func defaultSpaceConfigs() []*core.Config {
	layouts := [][]int{{32, 16, 8, 8}, {64, 32, 32}}
	for _, c := range []int{2, 4, 8, 16, 32} {
		for _, n := range []int{4, 8, 16, 32} {
			layouts = append(layouts, slices.Repeat([]int{n}, c))
		}
	}
	icn1 := []network.Technology{network.GigabitEthernet, network.Myrinet, network.Infiniband}
	ecn := []network.Technology{network.FastEthernet, network.GigabitEthernet}
	var out []*core.Config
	k := 0
	for _, layout := range layouts {
		for _, arch := range []network.Architecture{network.NonBlocking, network.Blocking} {
			cfg := &core.Config{ICN2: ecn[k/2%2], Arch: arch, Switch: network.PaperSwitch, MessageBytes: 1024}
			for _, n := range layout {
				cfg.Clusters = append(cfg.Clusters, core.Cluster{Nodes: n,
					Lambda: core.PaperLambda * (1 + 0.25*float64(k%3)), ICN1: icn1[k%3], ECN1: ecn[k%2]})
			}
			out = append(out, cfg)
			k++
		}
	}
	return out
}

// TestAnalyzeBitIdenticalToReference checks all four entry points against
// the reference evaluation in reference_test.go: on seeded random
// heterogeneous configurations of 1 to 300 clusters, on run layouts built
// to stress the run-length model, and on the planner's default layouts.
func TestAnalyzeBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20050614))
	sizes := []int{1, 2, 3, 300}
	n := 40
	if testing.Short() {
		n = 10
	}
	for len(sizes) < n {
		// Log-uniform over 1..300, so small systems are common.
		sizes = append(sizes, int(math.Exp(rng.Float64()*math.Log(300))))
	}
	scvs := []float64{0, 0.5, 1, 2.5}
	for _, c := range sizes {
		cfg := randomHeterogeneous(rng, c)
		locality := rng.Float64()
		if rng.Intn(4) == 0 {
			locality = float64(rng.Intn(2)) // the 0 and 1 edges
		}
		checkAllEntryPoints(t, cfg, []float64{scvs[rng.Intn(len(scvs))]}, []float64{locality})
	}
	for _, cfg := range runLayouts(rng) {
		checkAllEntryPoints(t, cfg, []float64{1, 2.5}, []float64{0, 1, rng.Float64()})
	}
	for _, cfg := range defaultSpaceConfigs() {
		checkAllEntryPoints(t, cfg, []float64{0, 1}, []float64{0, 1, 0.5})
	}
}

// alternating returns a Case 1 system of c clusters whose rates alternate
// between λ and 1.5λ, so no two neighbours share a run but all share
// their network models.
func alternating(t testing.TB, c int) *core.Config {
	cfg, err := core.PaperConfig(core.Case1, c, 1024, network.NonBlocking)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < c; i += 2 {
		cfg.Clusters[i].Lambda *= 1.5
	}
	return cfg
}

// TestAnalyzeAllocsIndependentOfClusterCount guards the O(C) fixed point:
// the model is sized once, its bisection allocates nothing, and identical
// clusters share their network models, so a 256-cluster system allocates
// no more than a 4-cluster one, whether its clusters form one run or 256.
func TestAnalyzeAllocsIndependentOfClusterCount(t *testing.T) {
	allocs := func(cfg *core.Config) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Analyze(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	paper := func(c int) *core.Config {
		cfg, err := core.PaperConfig(core.Case1, c, 1024, network.NonBlocking)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	small, large := allocs(paper(4)), allocs(paper(256))
	if large > small {
		t.Fatalf("Analyze allocates %v times at C=256 but %v at C=4", large, small)
	}
	altSmall, altLarge := allocs(alternating(t, 4)), allocs(alternating(t, 256))
	if altSmall != small || altLarge != small {
		t.Fatalf("alternating layout allocates %v times at C=4 and %v at C=256, one run %v",
			altSmall, altLarge, small)
	}
}
