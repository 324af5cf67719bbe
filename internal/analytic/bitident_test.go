package analytic

import (
	"fmt"
	"math"
	"math/rand"
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

// TestAnalyzeBitIdenticalToReference checks Analyze, AnalyzeSCV and
// AnalyzeLocality against the reference evaluation in reference_test.go on
// seeded random heterogeneous configurations of 1 to 300 clusters.
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

		got, gotErr := Analyze(cfg)
		want, wantErr := refAnalyze(cfg)
		checkSame(t, "Analyze", cfg, got, want, gotErr, wantErr)

		scv := scvs[rng.Intn(len(scvs))]
		got, gotErr = AnalyzeSCV(cfg, scv)
		want, wantErr = refAnalyzeSCV(cfg, scv)
		checkSame(t, "AnalyzeSCV", cfg, got, want, gotErr, wantErr)

		locality := rng.Float64()
		if rng.Intn(4) == 0 {
			locality = float64(rng.Intn(2)) // the 0 and 1 edges
		}
		got, gotErr = AnalyzeLocality(cfg, locality)
		want, wantErr = refAnalyzeLocality(cfg, locality)
		checkSame(t, "AnalyzeLocality", cfg, got, want, gotErr, wantErr)
	}
}

// TestAnalyzeAllocsIndependentOfClusterCount guards the O(C) fixed point:
// the bisection fills one rate buffer in place and identical clusters
// share their service rates, so a 256-cluster system allocates no more
// than a 4-cluster one.
func TestAnalyzeAllocsIndependentOfClusterCount(t *testing.T) {
	allocs := func(c int) float64 {
		cfg, err := core.PaperConfig(core.Case1, c, 1024, network.NonBlocking)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := Analyze(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4), allocs(256)
	if large > small {
		t.Fatalf("Analyze allocates %v times at C=256 but %v at C=4", large, small)
	}
}
