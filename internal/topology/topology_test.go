package topology

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFatTreePaperExample(t *testing.T) {
	// Figure 3 of the paper: N=16 nodes, Pr=8 ports => d=2 stages, k=6
	// switches, bisection width 8 = N/2.
	f, err := NewFatTree(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Stages(); d != 2 {
		t.Fatalf("stages = %d, want 2 (paper eq. 12 example)", d)
	}
	if k := f.Switches(); k != 6 {
		t.Fatalf("switches = %d, want 6 (paper eq. 13 example)", k)
	}
	if b := f.BisectionWidth(); b != 8 {
		t.Fatalf("bisection = %d, want 8 (paper eq. 14)", b)
	}
	if !f.FullBisection() {
		t.Fatal("fat-tree must have full bisection (Theorem 1)")
	}
	if got := f.SwitchesTraversed(); got != 3 {
		t.Fatalf("switches traversed = %v, want 2d-1 = 3", got)
	}
}

func TestFatTreeSingleSwitchRegime(t *testing.T) {
	// The paper's observation at C=16: with N=16 nodes and Pr=24 ports,
	// everything fits in one switch.
	f, err := NewFatTree(16, 24)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Stages(); d != 1 {
		t.Fatalf("stages = %d, want 1 (single-switch regime)", d)
	}
	if k := f.Switches(); k != 1 {
		t.Fatalf("switches = %d, want 1", k)
	}
	if got := f.SwitchesTraversed(); got != 1 {
		t.Fatalf("switches traversed = %v, want 1", got)
	}
}

func TestFatTreePaperPlatform(t *testing.T) {
	// The validation platform: N=256, Pr=24 => d = ceil(log2(128)/log2(12)).
	f, err := NewFatTree(256, 24)
	if err != nil {
		t.Fatal(err)
	}
	wantD := int(math.Ceil(math.Log2(128) / math.Log2(12)))
	if d := f.Stages(); d != wantD {
		t.Fatalf("stages = %d, want %d", d, wantD)
	}
	if d := f.Stages(); d != 2 {
		t.Fatalf("stages = %d, want 2 for N=256 Pr=24", d)
	}
	// k = (d-1)*ceil(2N/Pr) + ceil(N/Pr) = 1*22 + 11 = 33.
	if k := f.Switches(); k != 33 {
		t.Fatalf("switches = %d, want 33", k)
	}
}

func TestFatTreeStagesMonotoneInN(t *testing.T) {
	prev := 0
	for n := 2; n <= 4096; n *= 2 {
		f, err := NewFatTree(n, 8)
		if err != nil {
			t.Fatal(err)
		}
		d := f.Stages()
		if d < prev {
			t.Fatalf("stages decreased from %d to %d at n=%d", prev, d, n)
		}
		prev = d
	}
}

func TestFatTreeValidation(t *testing.T) {
	if _, err := NewFatTree(0, 8); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewFatTree(16, 3); err == nil {
		t.Error("odd port count accepted")
	}
	if _, err := NewFatTree(16, 2); err == nil {
		t.Error("too-small port count accepted")
	}
}

func TestLinearArrayPaperFormulas(t *testing.T) {
	l, err := NewLinearArray(256, 24)
	if err != nil {
		t.Fatal(err)
	}
	if k := l.Switches(); k != 11 { // ceil(256/24)
		t.Fatalf("switches = %d, want 11 (eq. 17)", k)
	}
	want := (11.0 + 1) / 3
	if got := l.SwitchesTraversed(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("avg traversed = %v, want %v (eq. 19)", got, want)
	}
	if b := l.BisectionWidth(); b != 1 {
		t.Fatalf("bisection = %d, want 1 (paper §5.3)", b)
	}
	if l.FullBisection() {
		t.Fatal("linear array must not have full bisection")
	}
	if bf := l.BlockingFactor(); bf != 128 {
		t.Fatalf("blocking factor = %v, want N/2 = 128 (eq. 21)", bf)
	}
}

func TestLinearArraySingleSwitch(t *testing.T) {
	l, err := NewLinearArray(8, 24)
	if err != nil {
		t.Fatal(err)
	}
	if k := l.Switches(); k != 1 {
		t.Fatalf("switches = %d, want 1", k)
	}
	if b := l.BisectionWidth(); b != 4 {
		t.Fatalf("single-switch bisection = %d, want N/2 = 4", b)
	}
	// Eq. 21 is applied literally even in the single-switch case.
	if bf := l.BlockingFactor(); bf != 4 {
		t.Fatalf("blocking factor = %v, want 4", bf)
	}
}

func TestLinearArrayTinyN(t *testing.T) {
	l, err := NewLinearArray(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bf := l.BlockingFactor(); bf != 1 {
		t.Fatalf("blocking factor for N=1 = %v, want 1 (no contention)", bf)
	}
}

func TestLinearArrayValidation(t *testing.T) {
	if _, err := NewLinearArray(0, 4); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewLinearArray(4, 1); err == nil {
		t.Error("1-port switch accepted")
	}
}

func TestQuickFatTreeInvariants(t *testing.T) {
	f := func(nRaw, prRaw uint16) bool {
		n := int(nRaw%4096) + 1
		pr := (int(prRaw%30) + 2) * 2 // even, 4..62
		ft, err := NewFatTree(n, pr)
		if err != nil {
			return false
		}
		d := ft.Stages()
		k := ft.Switches()
		if d < 1 || k < 1 {
			return false
		}
		// A single stage must mean the nodes fit in one switch's ports
		// (or N is tiny); more stages only appear when N > Pr.
		if n <= pr && d != 1 {
			return false
		}
		// Full bisection always holds for the paper's fat-tree.
		return ft.FullBisection()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLinearArrayInvariants(t *testing.T) {
	f := func(nRaw, prRaw uint16) bool {
		n := int(nRaw%4096) + 1
		pr := int(prRaw%62) + 2
		la, err := NewLinearArray(n, pr)
		if err != nil {
			return false
		}
		k := la.Switches()
		if k < 1 {
			return false
		}
		// Average traversal must lie within [ (k+1)/3 exact ] and be <= k.
		avg := la.SwitchesTraversed()
		if avg <= 0 || avg > float64(k)+1e-12 {
			return false
		}
		// Multi-switch arrays are never full bisection beyond trivial sizes.
		if k > 1 && n > 2 && la.FullBisection() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyNamesAndInterfaces(t *testing.T) {
	ft, _ := NewFatTree(16, 8)
	la, _ := NewLinearArray(16, 8)
	all := []Topology{ft, la}
	seen := map[string]bool{}
	for _, topo := range all {
		name := topo.Name()
		if name == "" || seen[name] {
			t.Errorf("%T: bad or duplicate name %q", topo, name)
		}
		seen[name] = true
		if topo.Nodes() < 1 || topo.Switches() < 1 {
			t.Errorf("%s: degenerate counts", name)
		}
		if topo.SwitchesTraversed() <= 0 {
			t.Errorf("%s: non-positive traversal", name)
		}
		if topo.BisectionWidth() < 1 {
			t.Errorf("%s: bisection < 1", name)
		}
		// FullBisection must be consistent with the definition.
		def := topo.BisectionWidth() >= (topo.Nodes()+1)/2
		if topo.FullBisection() != def {
			t.Errorf("%s: FullBisection()=%v inconsistent with widths (b=%d, n=%d)",
				name, topo.FullBisection(), topo.BisectionWidth(), topo.Nodes())
		}
	}
}
