package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

func referenceStations() []MVAStation {
	return []MVAStation{
		{Name: "cpu", VisitRatio: 1, ServiceTime: 0.005},
		{Name: "disk", VisitRatio: 3, ServiceTime: 0.010},
		{Name: "net", VisitRatio: 0.5, ServiceTime: 0.020},
	}
}

// asymptoticBounds is the operational envelope of a closed network
// (Denning & Buzen): with total demand D = Σ V·S and bottleneck demand
// Dmax, throughput lies in [N/(Z+N·D), min(N/(Z+D), 1/Dmax)] and the
// response time is at least max(D, N·Dmax − Z).
func asymptoticBounds(st []MVAStation, z float64, n int) (xLo, xHi, rLo float64) {
	var d, dmax float64
	for _, s := range st {
		d += s.VisitRatio * s.ServiceTime
		dmax = math.Max(dmax, s.VisitRatio*s.ServiceTime)
	}
	nf := float64(n)
	return nf / (z + nf*d), math.Min(nf/(z+d), 1/dmax), math.Max(d, nf*dmax-z)
}

// checkBounds fails t when a solved network leaves its asymptotic
// envelope by more than rounding.
func checkBounds(t *testing.T, r *MVAResult, st []MVAStation, z float64, n int) {
	t.Helper()
	const slack = 1e-9
	xLo, xHi, rLo := asymptoticBounds(st, z, n)
	if r.Throughput > xHi*(1+slack) || r.Throughput < xLo*(1-slack) {
		t.Errorf("n=%d: throughput %g outside [%g, %g]", n, r.Throughput, xLo, xHi)
	}
	if rt := r.ResponseTime(z); rt < rLo*(1-slack) {
		t.Errorf("n=%d: response time %g below lower bound %g", n, rt, rLo)
	}
}

func TestApproxMVACloseToExact(t *testing.T) {
	st := referenceStations()
	for _, n := range []int{1, 5, 20, 100, 500} {
		exact, err := MVA(st, 0.5, n)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := ApproxMVA(st, 0.5, n)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(approx.Throughput-exact.Throughput) / exact.Throughput
		if rel > 0.05 {
			t.Errorf("n=%d: AMVA throughput %v vs exact %v (%.1f%% off)",
				n, approx.Throughput, exact.Throughput, rel*100)
		}
	}
}

func TestApproxMVAExactAtPopulationOne(t *testing.T) {
	// With one customer there is no queueing; Schweitzer's correction term
	// vanishes ((n-1)/n = 0) and AMVA must equal exact MVA.
	st := referenceStations()
	exact, err := MVA(st, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := ApproxMVA(st, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(approx.Throughput-exact.Throughput) > 1e-9 {
		t.Fatalf("AMVA at n=1: %v vs exact %v", approx.Throughput, exact.Throughput)
	}
}

func TestApproxMVARespectsBounds(t *testing.T) {
	st := referenceStations()
	for _, n := range []int{1, 10, 100, 1000} {
		r, err := ApproxMVA(st, 0.25, n)
		if err != nil {
			t.Fatal(err)
		}
		checkBounds(t, r, st, 0.25, n)
	}
}

func TestApproxMVAErrors(t *testing.T) {
	st := referenceStations()
	if _, err := ApproxMVA(st, 0.5, 0); err == nil {
		t.Error("population 0 accepted")
	}
	if _, err := ApproxMVA(st, -1, 1); err == nil {
		t.Error("negative think time accepted")
	}
	if _, err := ApproxMVA(nil, 0.5, 1); err == nil {
		t.Error("no stations accepted")
	}
	if _, err := ApproxMVA([]MVAStation{{VisitRatio: -1}}, 0.5, 1); err == nil {
		t.Error("negative visit ratio accepted")
	}
}

func TestExactMVAWithinBounds(t *testing.T) {
	st := referenceStations()
	for _, n := range []int{1, 7, 42, 300} {
		r, err := MVA(st, 0.5, n)
		if err != nil {
			t.Fatal(err)
		}
		checkBounds(t, r, st, 0.5, n)
	}
}

func TestQuickAMVAWithinBounds(t *testing.T) {
	f := func(nRaw uint8, d1Raw, d2Raw, zRaw uint16) bool {
		n := int(nRaw)%200 + 1
		st := []MVAStation{
			{Name: "a", VisitRatio: 1, ServiceTime: float64(d1Raw%1000)/1e4 + 1e-4},
			{Name: "b", VisitRatio: 1, ServiceTime: float64(d2Raw%1000)/1e4 + 1e-4},
		}
		z := float64(zRaw%1000) / 100
		r, err := ApproxMVA(st, z, n)
		if err != nil {
			return false
		}
		xLo, xHi, _ := asymptoticBounds(st, z, n)
		// Allow a tiny numerical slack beyond the analytic envelope.
		return r.Throughput <= xHi*1.0001 && r.Throughput >= xLo*0.9999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
