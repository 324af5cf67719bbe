package workload

import (
	"math"
	"testing"
	"testing/quick"

	"hmscs/internal/rng"
)

// fakeSystem is a simple layout: nc clusters of size each.
type fakeSystem struct {
	nc, size int
}

func (f fakeSystem) TotalNodes() int  { return f.nc * f.size }
func (f fakeSystem) NumClusters() int { return f.nc }
func (f fakeSystem) ClusterOf(node int) int {
	return node / f.size
}
func (f fakeSystem) ClusterRange(c int) (int, int) {
	return c * f.size, (c + 1) * f.size
}

func TestUniformNeverSelf(t *testing.T) {
	sys := fakeSystem{nc: 4, size: 4}
	st := rng.NewStream(1)
	p := Uniform{}
	for src := 0; src < sys.TotalNodes(); src++ {
		for i := 0; i < 500; i++ {
			d := p.Dest(st, sys, src)
			if d == src {
				t.Fatalf("uniform chose self for src=%d", src)
			}
			if d < 0 || d >= sys.TotalNodes() {
				t.Fatalf("dest %d out of range", d)
			}
		}
	}
}

func TestUniformIsUniform(t *testing.T) {
	sys := fakeSystem{nc: 2, size: 4}
	st := rng.NewStream(2)
	p := Uniform{}
	counts := make([]int, sys.TotalNodes())
	const draws = 70000
	for i := 0; i < draws; i++ {
		counts[p.Dest(st, sys, 3)]++
	}
	want := float64(draws) / 7 // 7 possible destinations
	for node, c := range counts {
		if node == 3 {
			if c != 0 {
				t.Fatalf("self chosen %d times", c)
			}
			continue
		}
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("node %d: count %d deviates from %v", node, c, want)
		}
	}
}

func TestLocalBiasExtremes(t *testing.T) {
	sys := fakeSystem{nc: 4, size: 8}
	st := rng.NewStream(3)
	// Locality 1: always local.
	all := LocalBias{Locality: 1}
	for i := 0; i < 2000; i++ {
		d := all.Dest(st, sys, 10) // cluster 1 (nodes 8..15)
		if sys.ClusterOf(d) != 1 {
			t.Fatalf("locality=1 escaped cluster: dest=%d", d)
		}
		if d == 10 {
			t.Fatal("self selected")
		}
	}
	// Locality 0: always remote.
	none := LocalBias{Locality: 0}
	for i := 0; i < 2000; i++ {
		d := none.Dest(st, sys, 10)
		if sys.ClusterOf(d) == 1 {
			t.Fatalf("locality=0 stayed in cluster: dest=%d", d)
		}
	}
}

func TestLocalBiasDegenerateClusters(t *testing.T) {
	// Single-node clusters: local destination impossible, must go remote.
	sys := fakeSystem{nc: 4, size: 1}
	st := rng.NewStream(4)
	p := LocalBias{Locality: 1}
	for i := 0; i < 100; i++ {
		d := p.Dest(st, sys, 2)
		if d == 2 {
			t.Fatal("self selected in degenerate cluster")
		}
	}
	// Single cluster: remote impossible, must stay local.
	sys1 := fakeSystem{nc: 1, size: 8}
	q := LocalBias{Locality: 0}
	for i := 0; i < 100; i++ {
		d := q.Dest(st, sys1, 0)
		if d == 0 || d >= 8 {
			t.Fatalf("bad dest %d in single-cluster system", d)
		}
	}
}

func TestLocalBiasMatchesUniformAtNaturalLocality(t *testing.T) {
	// With locality = (size-1)/(n-1), LocalBias statistically matches
	// Uniform's local fraction.
	sys := fakeSystem{nc: 4, size: 8}
	natural := 7.0 / 31.0
	st := rng.NewStream(5)
	p := LocalBias{Locality: natural}
	local := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if sys.ClusterOf(p.Dest(st, sys, 0)) == 0 {
			local++
		}
	}
	got := float64(local) / draws
	if math.Abs(got-natural) > 0.01 {
		t.Fatalf("local fraction = %v, want %v", got, natural)
	}
}

func TestHotspot(t *testing.T) {
	sys := fakeSystem{nc: 2, size: 8}
	st := rng.NewStream(6)
	p := Hotspot{Node: 5, Fraction: 0.5}
	hits := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		if p.Dest(st, sys, 0) == 5 {
			hits++
		}
	}
	// Expect 0.5 + 0.5/15 of traffic at the hotspot.
	want := 0.5 + 0.5/15.0
	if math.Abs(float64(hits)/draws-want) > 0.01 {
		t.Fatalf("hotspot fraction = %v, want %v", float64(hits)/draws, want)
	}
	// The hot node itself must never send to itself.
	for i := 0; i < 1000; i++ {
		if p.Dest(st, sys, 5) == 5 {
			t.Fatal("hotspot node targeted itself")
		}
	}
}

func TestPatternNames(t *testing.T) {
	for _, p := range []Pattern{Uniform{}, LocalBias{Locality: 0.5}, Hotspot{Node: 1, Fraction: 0.1}} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}

// TestPatternsNeverReturnSource is the cross-pattern self-routing property
// test: across pinned seeds, no pattern may ever pick the source as the
// destination — Hotspot must fall through to uniform when the hot node
// sends.
func TestPatternsNeverReturnSource(t *testing.T) {
	sys := fakeSystem{nc: 4, size: 4}
	n := sys.TotalNodes()
	for _, seed := range []uint64{1, 7, 42, 1234, 0xdeadbeef} {
		st := rng.NewStream(seed)
		patterns := []Pattern{
			Hotspot{Node: 3, Fraction: 0.9},
			Hotspot{Node: 0, Fraction: 1},
			Uniform{},
			LocalBias{Locality: 0.8},
		}
		for _, p := range patterns {
			for src := 0; src < n; src++ {
				for i := 0; i < 200; i++ {
					d := p.Dest(st, sys, src)
					if d == src {
						t.Fatalf("seed %d: %s routed src %d to itself", seed, p.Name(), src)
					}
					if d < 0 || d >= n {
						t.Fatalf("seed %d: %s dest %d out of range", seed, p.Name(), d)
					}
				}
			}
		}
	}
}

func TestQuickUniformDestValid(t *testing.T) {
	st := rng.NewStream(12)
	f := func(ncRaw, sizeRaw, srcRaw uint8) bool {
		nc := int(ncRaw%8) + 1
		size := int(sizeRaw%8) + 1
		sys := fakeSystem{nc: nc, size: size}
		if sys.TotalNodes() < 2 {
			return true
		}
		src := int(srcRaw) % sys.TotalNodes()
		d := Uniform{}.Dest(st, sys, src)
		return d != src && d >= 0 && d < sys.TotalNodes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
