package plan

import (
	"context"
	"math"
	"reflect"
	"testing"

	"hmscs/internal/analytic"
	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/output"
	"hmscs/internal/progress"
	"hmscs/internal/scenario"
	"hmscs/internal/sim"
	"hmscs/internal/validate"
)

// smallSpace is a Case-1-region space (GE intra, FE inter, non-blocking)
// at a comfortably stable operating point, small enough for simulation in
// tests.
func smallSpace() *Space {
	return &Space{
		Clusters:        []int{2, 4},
		NodesPerCluster: []int{8, 16},
		ICN1:            []network.Technology{network.GigabitEthernet},
		ECN1:            []network.Technology{network.FastEthernet},
		ICN2:            []network.Technology{network.FastEthernet},
		Archs:           []network.Architecture{network.NonBlocking},
		Lambda:          100,
		MessageBytes:    1024,
		Switch:          network.PaperSwitch,
	}
}

func TestEnumerateDeterministicAndComplete(t *testing.T) {
	sp := DefaultSpace()
	a, err := Enumerate(sp)
	if err != nil {
		t.Fatal(err)
	}
	// The documented default space: 22 layouts × 3×2×2 technologies ×
	// 2 architectures × 3 headrooms.
	if len(a) != 1584 {
		t.Fatalf("default space enumerates %d candidates, want 1584", len(a))
	}
	b, err := Enumerate(sp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Index != i {
			t.Fatalf("candidate %d has index %d", i, a[i].Index)
		}
		if a[i].Headroom != b[i].Headroom || !reflect.DeepEqual(a[i].Cfg, b[i].Cfg) {
			t.Fatalf("enumeration is not deterministic at %d", i)
		}
	}
}

func TestEnumerateSubsample(t *testing.T) {
	sp := DefaultSpace()
	sp.MaxCandidates = 100
	cands, err := Enumerate(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 100 {
		t.Fatalf("subsample kept %d candidates, want 100", len(cands))
	}
	for i, c := range cands {
		if c.Index != i {
			t.Fatalf("subsampled candidate %d has index %d", i, c.Index)
		}
	}
	again, err := Enumerate(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cands, again) {
		t.Fatal("subsampling is not deterministic")
	}
}

func TestEnumerateSkipsInvalidCombos(t *testing.T) {
	sp := smallSpace()
	// A single 1-node cluster cannot generate traffic; core rejects it and
	// enumeration must skip it without failing the whole space.
	sp.Clusters = []int{1}
	sp.NodesPerCluster = []int{1, 8}
	cands, err := Enumerate(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 {
		t.Fatalf("got %d candidates, want just C=1 N=8", len(cands))
	}
	if cands[0].Cfg.TotalNodes() != 8 {
		t.Fatalf("kept the wrong layout: %v", cands[0].Cfg)
	}
}

func TestSpaceJSONRoundTrip(t *testing.T) {
	orig := DefaultSpace()
	orig.MaxCandidates = 500
	data, err := orig.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Space
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	// The µs round trip may leave one ULP of float noise on the switch
	// latency; compare it separately.
	if d := back.Switch.Latency - orig.Switch.Latency; math.Abs(d) > 1e-12 {
		t.Fatalf("switch latency drifted: %g vs %g", back.Switch.Latency, orig.Switch.Latency)
	}
	back.Switch.Latency = orig.Switch.Latency
	if !reflect.DeepEqual(orig, &back) {
		t.Fatalf("round trip changed the space:\n%+v\nvs\n%+v", orig, &back)
	}
	// Both enumerate identically.
	a, err := Enumerate(orig)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Enumerate(&back)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("round-tripped space enumerates %d vs %d", len(b), len(a))
	}
}

// TestScreenParallelismInvariance screens all 1584 candidates of the
// default space at parallelism 1, 2 and 8, on the M/M/1 path (SCV 1) and
// the G/G/1-corrected path (SCV 4): every field of every result, and the
// frontier, must agree, so the pool's claim order never shows.
func TestScreenParallelismInvariance(t *testing.T) {
	sp := DefaultSpace()
	slo := SLO{MaxLatency: 2e-3, MinNodes: 64}
	cm := DefaultCostModel()
	for _, scv := range []float64{1, 4} {
		seq, err := Screen(sp, slo, cm, scv, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != 1584 {
			t.Fatalf("SCV %g: screened %d candidates, want the full 1584", scv, len(seq))
		}
		for _, p := range []int{2, 8} {
			got, err := Screen(sp, slo, cm, scv, p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, got) {
				t.Fatalf("SCV %g: screening results differ between parallelism 1 and %d", scv, p)
			}
			if !reflect.DeepEqual(Frontier(seq), Frontier(got)) {
				t.Fatalf("SCV %g: frontier differs between parallelism 1 and %d", scv, p)
			}
		}
	}
}

// TestScreenPaperPlatformParallelismInvariance screens the paper's own
// platform (Case 1, 2 to 16 clusters) through one pool pass at parallelism
// 1 and 8: the per-candidate results must be identical.
func TestScreenPaperPlatformParallelismInvariance(t *testing.T) {
	var cands []Candidate
	for i, c := range []int{2, 4, 8, 16} {
		cfg, err := core.PaperConfig(core.Case1, c, 1024, network.NonBlocking)
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, Candidate{Index: i, Cfg: cfg})
	}
	slo := SLO{MaxLatency: 2e-3}.Normalized()
	seq, err := screenCandidates(context.Background(), cands, slo, DefaultCostModel(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := screenCandidates(context.Background(), cands, slo, DefaultCostModel(), 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(cands) {
		t.Fatalf("screened %d candidates, want %d", len(seq), len(cands))
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("paper-platform screen differs between parallelism 1 and 8")
	}
}

// TestScreenArrivalSCVRouting pins the screen's model selection: SCV 1
// predicts exactly what analytic.Analyze does, a finite bursty SCV exactly
// what analytic.AnalyzeArrival does (and no less), and an infinite SCV
// falls back to the M/M/1 model.
func TestScreenArrivalSCVRouting(t *testing.T) {
	sp := smallSpace()
	slo := SLO{MaxLatency: 2e-3}
	cm := DefaultCostModel()
	plain, err := Screen(sp, slo, cm, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := Screen(sp, slo, cm, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range plain {
		single, err := analytic.Analyze(r.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(r.Predicted) != math.Float64bits(single.MeanLatency) {
			t.Fatalf("candidate %d: screen %v vs Analyze %v", i, r.Predicted, single.MeanLatency)
		}
		corrected, err := analytic.AnalyzeArrival(r.Cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(bursty[i].Predicted) != math.Float64bits(corrected.MeanLatency) {
			t.Fatalf("candidate %d: screen at SCV 4 diverges from AnalyzeArrival", i)
		}
		if bursty[i].Predicted <= r.Predicted {
			t.Fatalf("candidate %d: burst correction did not raise latency", i)
		}
	}
	inf, err := Screen(sp, slo, cm, math.Inf(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inf, plain) {
		t.Fatal("infinite SCV should fall back to the M/M/1 model")
	}
}

// TestScreenLowestIndexError pins the error a failing screen reports: the
// lowest-index candidate's, at every parallelism level.
func TestScreenLowestIndexError(t *testing.T) {
	good, err := core.PaperConfig(core.Case1, 4, 1024, network.NonBlocking)
	if err != nil {
		t.Fatal(err)
	}
	noNodes := &core.Config{} // fails validation
	badTech, err := core.PaperConfig(core.Case1, 4, 1024, network.NonBlocking)
	if err != nil {
		t.Fatal(err)
	}
	badTech.Clusters[1].ICN1.Bandwidth = 0
	cands := []Candidate{{Index: 0, Cfg: good}, {Index: 1, Cfg: badTech}, {Index: 2, Cfg: noNodes}, {Index: 3, Cfg: good}}
	_, want := analytic.Analyze(badTech)
	if want == nil {
		t.Fatal("invalid configuration accepted")
	}
	for _, p := range []int{1, 2, 4} {
		_, err := screenCandidates(context.Background(), cands, SLO{MaxLatency: 2e-3}.Normalized(), DefaultCostModel(), 1, p)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("parallelism %d: err = %v, want the lowest-index failure %q", p, err, want)
		}
	}
}

// TestScreenSaturatedIsFiniteInfeasible pins the satellite requirement:
// candidates whose offered load overloads a centre (ρ >= 1 at the knee)
// must be reported infeasible with finite scores, never NaN/Inf. The
// behaviour it relies on is the analytic fixed point's physical clamp on
// the blocked-processor count, which keeps a finite latency at every
// offered ρ.
func TestScreenSaturatedIsFiniteInfeasible(t *testing.T) {
	sp := smallSpace()
	sp.Lambda = 50000 // far beyond any centre's capacity
	res, err := Screen(sp, SLO{MaxLatency: 2e-3}, DefaultCostModel(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no candidates screened")
	}
	for _, r := range res {
		if r.Feasible {
			t.Fatalf("candidate %d feasible at λ=50000: %+v", r.Index, r)
		}
		if !r.Saturated {
			t.Fatalf("candidate %d not flagged saturated", r.Index)
		}
		if r.Reason == "" {
			t.Fatalf("candidate %d has no infeasibility reason", r.Index)
		}
		for name, v := range map[string]float64{
			"cost": r.Cost, "predicted": r.Predicted, "bottleneck rho": r.BottleneckRho,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("candidate %d has non-finite %s %g", r.Index, name, v)
			}
		}
		if r.Predicted <= 0 {
			t.Fatalf("candidate %d predicted latency %g", r.Index, r.Predicted)
		}
	}

}

func TestScreenMinNodes(t *testing.T) {
	sp := smallSpace()
	res, err := Screen(sp, SLO{MaxLatency: 10e-3, MinNodes: 40}, DefaultCostModel(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		small := r.Cfg.TotalNodes() < 40
		if small && r.Feasible {
			t.Fatalf("candidate %d with %d nodes feasible under MinNodes=40", r.Index, r.Cfg.TotalNodes())
		}
		if !small && !r.Feasible {
			t.Fatalf("candidate %d with %d nodes infeasible: %s", r.Index, r.Cfg.TotalNodes(), r.Reason)
		}
	}
}

func TestFrontierIsParetoAndDeterministic(t *testing.T) {
	sp := DefaultSpace()
	sp.MaxCandidates = 400
	res, err := Screen(sp, SLO{MaxLatency: 2e-3}, DefaultCostModel(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fr := Frontier(res)
	if len(fr) == 0 {
		t.Fatal("empty frontier on the default space")
	}
	for i := range fr {
		if !fr[i].Feasible {
			t.Fatalf("infeasible candidate %d on the frontier", fr[i].Index)
		}
		if i > 0 {
			if fr[i].Cost <= fr[i-1].Cost {
				t.Fatalf("frontier not strictly increasing in cost at %d", i)
			}
			if fr[i].Predicted >= fr[i-1].Predicted {
				t.Fatalf("frontier not strictly decreasing in latency at %d", i)
			}
		}
	}
	// Brute-force domination check against the full feasible set.
	for _, f := range fr {
		for _, r := range res {
			if !r.Feasible || r.Index == f.Index {
				continue
			}
			if r.Cost <= f.Cost && r.Predicted <= f.Predicted &&
				(r.Cost < f.Cost || r.Predicted < f.Predicted) {
				t.Fatalf("frontier candidate %d dominated by %d", f.Index, r.Index)
			}
		}
	}
	if !reflect.DeepEqual(fr, Frontier(res)) {
		t.Fatal("frontier is not deterministic")
	}
}

func verifyOpts() sim.Options {
	o := sim.DefaultOptions()
	o.MeasuredMessages = 4000
	return o
}

// TestVerifyGapWithinClaimedMAPE is the acceptance pin: on the paper's
// Case-1 region with Poisson workloads, the analytic screen's predictions
// must track the precision-mode verification within the 15% MAPE
// internal/validate already claims for the figure reproduction.
func TestVerifyGapWithinClaimedMAPE(t *testing.T) {
	res, err := Screen(smallSpace(), SLO{MaxLatency: 5e-3}, DefaultCostModel(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fr := Frontier(res)
	if len(fr) == 0 {
		t.Fatal("empty frontier")
	}
	prec := output.Precision{RelWidth: 0.05, MaxReps: 16}
	verified, err := VerifyTopK(fr, 3, SLO{MaxLatency: 5e-3}.Normalized(), verifyOpts(), prec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(verified) == 0 {
		t.Fatal("nothing verified")
	}
	series := &validate.Series{Name: "plan Case-1 region"}
	for _, v := range verified {
		if v.Sim.Mean <= 0 {
			t.Fatalf("candidate %d simulated mean %g", v.Index, v.Sim.Mean)
		}
		series.Points = append(series.Points, validate.Point{
			X: float64(v.Index), Analytic: v.Predicted,
			Simulated: v.Sim.Mean, SimCI: v.Sim.HalfWidth,
		})
	}
	if err := series.Check(0.15); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyParallelismInvariance(t *testing.T) {
	res, err := Screen(smallSpace(), SLO{MaxLatency: 5e-3}, DefaultCostModel(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fr := Frontier(res)
	prec := output.Precision{RelWidth: 0.1, MaxReps: 6}
	slo := SLO{MaxLatency: 5e-3}.Normalized()
	seq, err := VerifyTopK(fr, 2, slo, verifyOpts(), prec, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := VerifyTopK(fr, 2, slo, verifyOpts(), prec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("verification differs between -parallel 1 and 8")
	}
}

// TestVerifyScenarioFallsBackToPlanSLO: a timeline without its own
// latency objective is judged against the plan SLO's budget, so its
// recovery equals that of the same timeline spelling the budget out.
func TestVerifyScenarioFallsBackToPlanSLO(t *testing.T) {
	slo := SLO{MaxLatency: 5e-3}
	res, err := Screen(smallSpace(), slo, DefaultCostModel(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fr := Frontier(res)
	var recovery []float64
	for _, sloMS := range []float64{0, 5} {
		scn := &scenario.Spec{HorizonS: 0.12, SliceS: 0.01, SLOLatencyMS: sloMS, Events: []scenario.Event{
			{TS: 0.04, Action: scenario.ActionFail, Target: "cluster:largest", Policy: "drop"},
			{TS: 0.08, Action: scenario.ActionRepair, Target: "cluster:largest"},
		}}
		verified := []VerifiedCandidate{{ScreenResult: fr[0]}}
		if err := VerifyScenarioCtx(context.Background(), verified, scn, slo, verifyOpts(), 2, 2, nil); err != nil {
			t.Fatal(err)
		}
		if !verified[0].ScenarioChecked || math.IsNaN(verified[0].Recovery) {
			t.Fatalf("slo_latency_ms %g: checked %v, recovery %v; want a recovery judged against an SLO",
				sloMS, verified[0].ScenarioChecked, verified[0].Recovery)
		}
		recovery = append(recovery, verified[0].Recovery)
	}
	if math.Float64bits(recovery[0]) != math.Float64bits(recovery[1]) {
		t.Fatalf("recovery %v without a timeline SLO, %v with the plan budget spelled out", recovery[0], recovery[1])
	}
}

// TestVerifyScenarioBatchesCandidates: the scenario check runs every
// candidate as one unit of a single batch, so its progress events number
// candidate i as unit i of k (the verify stage's numbering), and each
// candidate recovers exactly as it does when checked on its own.
func TestVerifyScenarioBatchesCandidates(t *testing.T) {
	slo := SLO{MaxLatency: 5e-3}
	res, err := Screen(smallSpace(), slo, DefaultCostModel(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Any screened candidates will do; the frontier of this space is one.
	var cands []ScreenResult
	for _, r := range res {
		if r.Feasible {
			cands = append(cands, r)
		}
	}
	const k, reps = 3, 2
	if len(cands) < k {
		t.Fatalf("%d feasible candidates, want at least %d", len(cands), k)
	}
	scn := &scenario.Spec{HorizonS: 0.12, SliceS: 0.01, Events: []scenario.Event{
		{TS: 0.04, Action: scenario.ActionFail, Target: "cluster:largest", Policy: "drop"},
		{TS: 0.08, Action: scenario.ActionRepair, Target: "cluster:largest"},
	}}
	verified := make([]VerifiedCandidate, k)
	for i := range verified {
		verified[i].ScreenResult = cands[i]
	}
	var events []progress.Event
	record := func(ev progress.Event) { events = append(events, ev) }
	if err := VerifyScenarioCtx(context.Background(), verified, scn, slo, verifyOpts(), reps, 1, record); err != nil {
		t.Fatal(err)
	}
	var want []progress.Event
	for i := 0; i < k; i++ {
		for rep := 0; rep < reps; rep++ {
			want = append(want, progress.Event{Kind: progress.UnitFinished, Unit: i, Units: k, Rep: rep})
		}
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("scenario check events:\n%+v\nwant\n%+v", events, want)
	}
	for i := range verified {
		alone := []VerifiedCandidate{{ScreenResult: cands[i]}}
		if err := VerifyScenarioCtx(context.Background(), alone, scn, slo, verifyOpts(), reps, 2, nil); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(alone[0].Recovery) != math.Float64bits(verified[i].Recovery) || alone[0].RecoveryOK != verified[i].RecoveryOK {
			t.Fatalf("candidate %d recovers in %v (ok %v) in the batch, %v (ok %v) alone",
				i, verified[i].Recovery, verified[i].RecoveryOK, alone[0].Recovery, alone[0].RecoveryOK)
		}
	}
}

func TestCostModelOrdering(t *testing.T) {
	cm := DefaultCostModel()
	mk := func(n int, icn1 network.Technology) *core.Config {
		cfg, err := core.NewSuperCluster(4, n, 100, icn1, network.FastEthernet,
			network.NonBlocking, network.PaperSwitch, 1024)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	cost := func(cfg *core.Config) float64 {
		c, err := cm.Cost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	small, big := cost(mk(8, network.GigabitEthernet)), cost(mk(16, network.GigabitEthernet))
	if !(big > small) {
		t.Fatalf("more nodes should cost more: %g vs %g", big, small)
	}
	fe, ib := cost(mk(8, network.FastEthernet)), cost(mk(8, network.Infiniband))
	if !(ib > fe) {
		t.Fatalf("Infiniband ports should cost more than FastEthernet: %g vs %g", ib, fe)
	}
	// Unknown technologies price at the default per-port cost.
	custom := network.Technology{Name: "Quadrics", Latency: 5e-6, Bandwidth: 340e6}
	if got := cost(mk(8, custom)); !(got > fe) {
		t.Fatalf("default port cost not applied: %g vs FE %g", got, fe)
	}
}

func TestSLOValidation(t *testing.T) {
	for _, bad := range []SLO{
		{MaxLatency: 0},
		{MaxLatency: -1},
		{MaxLatency: math.Inf(1)},
		{MaxLatency: 1e-3, MaxUtil: 1.5},
		{MaxLatency: 1e-3, MinNodes: -1},
	} {
		if err := bad.Normalized().Validate(); err == nil {
			t.Errorf("SLO %+v accepted", bad)
		}
	}
	if err := (SLO{MaxLatency: 1e-3}).Normalized().Validate(); err != nil {
		t.Errorf("default-normalized SLO rejected: %v", err)
	}
}

func TestSpaceValidation(t *testing.T) {
	mutations := map[string]func(*Space){
		"no layouts":    func(s *Space) { s.Clusters, s.Splits = nil, nil },
		"no nodes":      func(s *Space) { s.NodesPerCluster = nil },
		"no icn1":       func(s *Space) { s.ICN1 = nil },
		"no archs":      func(s *Space) { s.Archs = nil },
		"zero lambda":   func(s *Space) { s.Lambda = 0 },
		"bad headroom":  func(s *Space) { s.Headroom = []float64{0} },
		"bad msg":       func(s *Space) { s.MessageBytes = 0 },
		"empty split":   func(s *Space) { s.Splits = [][]int{{}} },
		"negative cap":  func(s *Space) { s.MaxCandidates = -1 },
		"bad switch":    func(s *Space) { s.Switch.Ports = 3 },
		"zero node opt": func(s *Space) { s.NodesPerCluster = []int{0} },
		"zero clusters": func(s *Space) { s.Clusters = []int{0} },
		"split zero":    func(s *Space) { s.Splits = [][]int{{4, 0}} },
	}
	for name, mutate := range mutations {
		sp := DefaultSpace()
		mutate(sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: invalid space accepted", name)
		}
	}
	if err := DefaultSpace().Validate(); err != nil {
		t.Errorf("default space rejected: %v", err)
	}
}
