package plan

import (
	"fmt"
	"math"
	"testing"

	"hmscs/internal/analytic"
	"hmscs/internal/core"
	"hmscs/internal/network"
)

// shrinkingSpace enumerates large systems before small ones, then a
// many-run split before a two-run one, so a Result reused from one
// candidate to the next holds more centres and runs than the next needs.
func shrinkingSpace() *Space {
	sp := DefaultSpace()
	sp.Clusters = []int{64, 16, 2}
	sp.NodesPerCluster = []int{4, 16}
	sp.Splits = [][]int{{8, 16, 8, 16, 8, 16, 8, 16}, {32, 16}}
	sp.ICN1 = []network.Technology{network.GigabitEthernet, network.Myrinet}
	sp.Lambda = 100
	return sp
}

// referenceScreen screens one candidate through the public entry points
// only: a fresh analytic.Analyze or AnalyzeArrival result and
// CostModel.Cost, both validating.
func referenceScreen(c Candidate, slo SLO, cm CostModel, arrivalSCV float64) (ScreenResult, error) {
	var an *analytic.Result
	var err error
	if analytic.UsesArrivalCorrection(arrivalSCV) {
		an, err = analytic.AnalyzeArrival(c.Cfg, arrivalSCV)
	} else {
		an, err = analytic.Analyze(c.Cfg)
	}
	if err != nil {
		return ScreenResult{}, err
	}
	price, err := cm.Cost(c.Cfg)
	if err != nil {
		return ScreenResult{}, err
	}
	return score(c, an, price, slo), nil
}

// sameScreenResult compares every field, floats by their bits.
func sameScreenResult(a, b ScreenResult) error {
	bits := math.Float64bits
	switch {
	case a.Index != b.Index || a.Cfg != b.Cfg || bits(a.Headroom) != bits(b.Headroom):
		return fmt.Errorf("candidate %d/%v/%v vs %d/%v/%v", a.Index, a.Cfg, a.Headroom, b.Index, b.Cfg, b.Headroom)
	case bits(a.Cost) != bits(b.Cost):
		return fmt.Errorf("cost %v vs %v", a.Cost, b.Cost)
	case bits(a.Predicted) != bits(b.Predicted):
		return fmt.Errorf("predicted %v vs %v", a.Predicted, b.Predicted)
	case a.BottleneckName != b.BottleneckName || bits(a.BottleneckRho) != bits(b.BottleneckRho):
		return fmt.Errorf("bottleneck %s ρ=%v vs %s ρ=%v", a.BottleneckName, a.BottleneckRho, b.BottleneckName, b.BottleneckRho)
	case a.Saturated != b.Saturated || a.Feasible != b.Feasible || a.Reason != b.Reason:
		return fmt.Errorf("verdict %v/%v/%q vs %v/%v/%q", a.Saturated, a.Feasible, a.Reason, b.Saturated, b.Feasible, b.Reason)
	}
	return nil
}

// TestScreenMatchesPerCandidateReference pins that the screen's reused
// analytic storage leaks nothing from one candidate into the next: every
// screened result equals, bit for bit, one built afresh per candidate,
// under Poisson and bursty arrivals, sequentially and on a pool.
func TestScreenMatchesPerCandidateReference(t *testing.T) {
	slo := SLO{MaxLatency: 2e-3, MinNodes: 64}
	cm := DefaultCostModel()
	for name, sp := range map[string]*Space{"default": DefaultSpace(), "shrinking": shrinkingSpace()} {
		cands, err := Enumerate(sp)
		if err != nil {
			t.Fatal(err)
		}
		for _, scv := range []float64{1, 4} {
			want := make([]ScreenResult, len(cands))
			for i, c := range cands {
				if want[i], err = referenceScreen(c, slo.Normalized(), cm, scv); err != nil {
					t.Fatalf("%s scv %g: reference %d: %v", name, scv, i, err)
				}
			}
			for _, p := range []int{1, 4} {
				got, err := Screen(sp, slo, cm, scv, p)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s scv %g parallelism %d: %d results, want %d", name, scv, p, len(got), len(want))
				}
				for i := range got {
					// Screen enumerates afresh; compare configurations by
					// identity against its own candidates.
					want[i].Cfg = got[i].Cfg
					if err := sameScreenResult(got[i], want[i]); err != nil {
						t.Fatalf("%s scv %g parallelism %d candidate %d (%s): %v", name, scv, p, i, got[i].Label(), err)
					}
				}
			}
		}
	}
}

// TestScreenOneAllocsIndependentOfClusterCount guards the per-candidate
// screen path: with a warm Result, a 256-cluster candidate allocates no
// more than a 4-cluster one, for one run and for alternating clusters.
func TestScreenOneAllocsIndependentOfClusterCount(t *testing.T) {
	slo := SLO{MaxLatency: 2e-3}.Normalized()
	cm := DefaultCostModel()
	an := new(analytic.Result)
	for _, scv := range []float64{1, 4} {
		allocs := func(cfg *core.Config) float64 {
			c := Candidate{Cfg: cfg, Headroom: 1}
			if _, err := screenOne(an, c, slo, cm, scv); err != nil { // warm up
				t.Fatal(err)
			}
			return testing.AllocsPerRun(20, func() {
				if _, err := screenOne(an, c, slo, cm, scv); err != nil {
					t.Fatal(err)
				}
			})
		}
		paper := func(c int, alternate bool) *core.Config {
			cfg, err := core.PaperConfig(core.Case1, c, 1024, network.NonBlocking)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; alternate && i < c; i += 2 {
				cfg.Clusters[i].Lambda *= 1.5
			}
			return cfg
		}
		small := allocs(paper(4, false))
		for _, alternate := range []bool{false, true} {
			if large := allocs(paper(256, alternate)); large > small {
				t.Fatalf("scv %g alternating %v: screening allocates %v times at C=256 but %v at C=4",
					scv, alternate, large, small)
			}
		}
	}
}
