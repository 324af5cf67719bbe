package analytic

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hmscs/internal/core"
)

// TestAnalyzeIntoReusedResultMatchesFresh runs one Result through
// configurations of falling size, so its reused storage is always longer
// than the next needs: every result must equal, bit for bit, a fresh
// Analyze or AnalyzeArrival of the same configuration, as
// UsesArrivalCorrection selects.
func TestAnalyzeIntoReusedResultMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	sizes := []int{300, 120, 64, 33, 17, 8, 5, 3, 2, 1}
	var cfgs []*core.Config
	for _, c := range sizes {
		cfgs = append(cfgs, randomHeterogeneous(rng, c))
	}
	cfgs = append(cfgs, defaultSpaceConfigs()...)
	res := new(Result)
	for _, scv := range []float64{1, 0, 2.5, math.NaN(), math.Inf(1)} {
		for _, cfg := range cfgs {
			want, wantErr := Analyze(cfg)
			if UsesArrivalCorrection(scv) {
				want, wantErr = AnalyzeArrival(cfg, scv)
			}
			err := AnalyzeInto(res, cfg, scv)
			if wantErr != nil || err != nil {
				t.Fatalf("scv %g, C=%d: AnalyzeInto error %v, fresh %v", scv, cfg.NumClusters(), err, wantErr)
			}
			if d := firstDiff(res, want); d != "" {
				t.Fatalf("scv %g, C=%d: reused result differs: %s", scv, cfg.NumClusters(), d)
			}
		}
	}
}

// TestAnalyzeIntoValidates pins that AnalyzeInto rejects what Analyze and
// AnalyzeArrival reject, with their errors.
func TestAnalyzeIntoValidates(t *testing.T) {
	cfg := randomHeterogeneous(rand.New(rand.NewSource(1)), 4)
	bad := *cfg
	bad.Clusters = slices.Clone(cfg.Clusters)
	bad.Clusters[2].ECN1.Bandwidth = 0
	_, want := Analyze(&bad)
	if err := AnalyzeInto(new(Result), &bad, 1); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("invalid configuration: AnalyzeInto %v, Analyze %v", err, want)
	}
	_, want = AnalyzeArrival(cfg, -1)
	if err := AnalyzeInto(new(Result), cfg, -1); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("negative SCV: AnalyzeInto %v, AnalyzeArrival %v", err, want)
	}
}

// TestAnalyzeIntoWarmAllocatesNothing guards the screen's reuse: once a
// Result has held a configuration, analysing it again allocates nothing.
func TestAnalyzeIntoWarmAllocatesNothing(t *testing.T) {
	for _, scv := range []float64{1, 4} {
		for _, c := range []int{4, 256} {
			cfg := alternating(t, c)
			res := new(Result)
			allocs := testing.AllocsPerRun(20, func() {
				if err := AnalyzeInto(res, cfg, scv); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("scv %g, C=%d: warm AnalyzeInto allocates %v times", scv, c, allocs)
			}
		}
	}
}
