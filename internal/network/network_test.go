package network

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTechnologyValidate(t *testing.T) {
	for _, tech := range []Technology{GigabitEthernet, FastEthernet, Myrinet, Infiniband} {
		if err := tech.Validate(); err != nil {
			t.Errorf("%s: %v", tech.Name, err)
		}
	}
	bad := []Technology{
		{Name: "", Latency: 1e-6, Bandwidth: MB},
		{Name: "x", Latency: -1, Bandwidth: MB},
		{Name: "x", Latency: 1e-6, Bandwidth: 0},
		{Name: "x", Latency: math.NaN(), Bandwidth: MB},
		{Name: "x", Latency: 1e-6, Bandwidth: math.Inf(1)},
	}
	for i, tech := range bad {
		if err := tech.Validate(); err == nil {
			t.Errorf("bad technology %d accepted", i)
		}
	}
}

func TestPaperTable2Values(t *testing.T) {
	if GigabitEthernet.Latency != 80e-6 {
		t.Errorf("GE latency = %v, want 80µs", GigabitEthernet.Latency)
	}
	if GigabitEthernet.Bandwidth != 94e6 {
		t.Errorf("GE bandwidth = %v, want 94 MB/s", GigabitEthernet.Bandwidth)
	}
	if FastEthernet.Latency != 50e-6 {
		t.Errorf("FE latency = %v, want 50µs", FastEthernet.Latency)
	}
	if FastEthernet.Bandwidth != 10.5e6 {
		t.Errorf("FE bandwidth = %v, want 10.5 MB/s", FastEthernet.Bandwidth)
	}
	if PaperSwitch.Ports != 24 || PaperSwitch.Latency != 10e-6 {
		t.Errorf("switch = %+v, want 24 ports / 10µs", PaperSwitch)
	}
}

func TestBeta(t *testing.T) {
	// FE: 1/10.5MB/s = 95.24 ns/byte.
	got := FastEthernet.Beta()
	want := 1 / 10.5e6
	if math.Abs(got-want) > 1e-18 {
		t.Fatalf("beta = %v, want %v", got, want)
	}
}

func TestTechnologyByName(t *testing.T) {
	for _, alias := range []string{"GE", "GigabitEthernet", "gigabit"} {
		tech, err := TechnologyByName(alias)
		if err != nil || tech.Name != "GigabitEthernet" {
			t.Errorf("lookup %q = %v, %v", alias, tech.Name, err)
		}
	}
	for _, alias := range []string{"FE", "fast"} {
		tech, err := TechnologyByName(alias)
		if err != nil || tech.Name != "FastEthernet" {
			t.Errorf("lookup %q failed", alias)
		}
	}
	if _, err := TechnologyByName("token-ring"); err == nil {
		t.Error("unknown technology accepted")
	}
}

func TestParseArchitecture(t *testing.T) {
	for s, want := range map[string]Architecture{
		"non-blocking": NonBlocking, "nonblocking": NonBlocking, "fat-tree": NonBlocking,
		"blocking": Blocking, "linear-array": Blocking,
	} {
		got, err := ParseArchitecture(s)
		if err != nil || got != want {
			t.Errorf("ParseArchitecture(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseArchitecture("torus"); err == nil {
		t.Error("unknown architecture accepted")
	}
	if NonBlocking.String() != "non-blocking" || Blocking.String() != "blocking" {
		t.Error("architecture strings wrong")
	}
	if !strings.Contains(Architecture(42).String(), "42") {
		t.Error("unknown architecture String should include the value")
	}
}

func TestSwitchValidate(t *testing.T) {
	if err := PaperSwitch.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, sw := range []Switch{{Ports: 3, Latency: 1e-6}, {Ports: 2, Latency: 1e-6}, {Ports: 24, Latency: -1}} {
		if err := sw.Validate(); err == nil {
			t.Errorf("bad switch %+v accepted", sw)
		}
	}
}

func TestNonBlockingServiceTimeEq11(t *testing.T) {
	// N=256 endpoints, Pr=24 => d=2 stages => 3 switch hops.
	m, err := NewModel(FastEthernet, NonBlocking, PaperSwitch, 256)
	if err != nil {
		t.Fatal(err)
	}
	msg := 1024
	want := 50e-6 + 3*10e-6 + 1024/10.5e6
	if got := m.MeanServiceTime(msg); math.Abs(got-want) > 1e-15 {
		t.Fatalf("T = %v, want %v (eq. 11)", got, want)
	}
	if m.BlockingTime(msg) != 0 {
		t.Fatal("non-blocking network must have zero blocking time (Theorem 1)")
	}
	if got := m.ServiceRate(msg); math.Abs(got-1/want) > 1e-6 {
		t.Fatalf("mu = %v", got)
	}
}

func TestBlockingServiceTimeEq21(t *testing.T) {
	// N=256 endpoints, Pr=24 => k=11 switches.
	m, err := NewModel(FastEthernet, Blocking, PaperSwitch, 256)
	if err != nil {
		t.Fatal(err)
	}
	msg := 1024
	beta := 1 / 10.5e6
	wire := 50e-6 + (11.0+1)/3*10e-6 + 1024*beta
	blocking := (128.0 - 1) * 1024 * beta
	want := wire + blocking
	if got := m.MeanServiceTime(msg); math.Abs(got-want) > 1e-12 {
		t.Fatalf("T = %v, want %v (eq. 21)", got, want)
	}
	// Eq. 21 compact form: α + (k+1)/3·αsw + (N/2)·M·β.
	compact := 50e-6 + (11.0+1)/3*10e-6 + 128*1024*beta
	if math.Abs(want-compact) > 1e-12 {
		t.Fatalf("decomposed %v != compact %v", want, compact)
	}
}

func TestBlockingSlowerThanNonBlocking(t *testing.T) {
	for _, n := range []int{16, 64, 256, 1024} {
		nb, err := NewModel(GigabitEthernet, NonBlocking, PaperSwitch, n)
		if err != nil {
			t.Fatal(err)
		}
		bl, err := NewModel(GigabitEthernet, Blocking, PaperSwitch, n)
		if err != nil {
			t.Fatal(err)
		}
		if n >= 4 && bl.MeanServiceTime(1024) <= nb.MeanServiceTime(1024) {
			t.Errorf("n=%d: blocking %v not slower than non-blocking %v",
				n, bl.MeanServiceTime(1024), nb.MeanServiceTime(1024))
		}
	}
}

func TestZeroLengthMessage(t *testing.T) {
	m, err := NewModel(GigabitEthernet, NonBlocking, PaperSwitch, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Zero payload still pays wire and switch latency.
	want := 80e-6 + 1*10e-6
	if got := m.MeanServiceTime(0); math.Abs(got-want) > 1e-15 {
		t.Fatalf("T(0) = %v, want %v", got, want)
	}
}

func TestNegativeMessagePanics(t *testing.T) {
	m, _ := NewModel(GigabitEthernet, NonBlocking, PaperSwitch, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("negative message size did not panic")
		}
	}()
	m.TransmissionTime(-1)
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(Technology{}, NonBlocking, PaperSwitch, 4); err == nil {
		t.Error("invalid technology accepted")
	}
	if _, err := NewModel(GigabitEthernet, NonBlocking, Switch{Ports: 3, Latency: 0}, 4); err == nil {
		t.Error("invalid switch accepted")
	}
	if _, err := NewModel(GigabitEthernet, NonBlocking, PaperSwitch, 0); err == nil {
		t.Error("zero endpoints accepted")
	}
	if _, err := NewModel(GigabitEthernet, Architecture(9), PaperSwitch, 4); err == nil {
		t.Error("bogus architecture accepted")
	}
}

func TestModelString(t *testing.T) {
	m, _ := NewModel(FastEthernet, Blocking, PaperSwitch, 256)
	s := m.String()
	for _, frag := range []string{"blocking", "FastEthernet", "256", "11"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestQuickServiceTimeMonotoneInMessageSize(t *testing.T) {
	m, err := NewModel(FastEthernet, Blocking, PaperSwitch, 128)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint16) bool {
		s1, s2 := int(a), int(b)
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		return m.MeanServiceTime(s1) <= m.MeanServiceTime(s2)+1e-18
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFasterTechIsFaster(t *testing.T) {
	f := func(nRaw uint8, msgRaw uint16) bool {
		n := int(nRaw)%500 + 2
		msg := int(msgRaw)
		ge, err1 := NewModel(GigabitEthernet, NonBlocking, PaperSwitch, n)
		fe, err2 := NewModel(FastEthernet, NonBlocking, PaperSwitch, n)
		if err1 != nil || err2 != nil {
			return false
		}
		// GE has higher latency but ~9x bandwidth; for messages above ~400B
		// GE must win. (Crossover: 30µs / (β_FE - β_GE) ≈ 355 bytes.)
		if msg > 1000 {
			return ge.MeanServiceTime(msg) < fe.MeanServiceTime(msg)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNewModelAllocatesNothing guards the value model: building one and
// reading its times and switch count stays off the heap, for both
// architectures.
func TestNewModelAllocatesNothing(t *testing.T) {
	var sink float64
	for _, arch := range []Architecture{NonBlocking, Blocking} {
		allocs := testing.AllocsPerRun(100, func() {
			m, err := NewModel(GigabitEthernet, arch, PaperSwitch, 256)
			if err != nil {
				t.Fatal(err)
			}
			sink += m.MeanServiceTime(1024) + float64(m.Switches())
		})
		if allocs != 0 {
			t.Fatalf("%v: building a model allocates %v times", arch, allocs)
		}
	}
	if !(sink > 0) {
		t.Fatal("no service time computed")
	}
}

// TestSwitchesMatchesTopology pins Model.Switches to the topology it
// reads.
func TestSwitchesMatchesTopology(t *testing.T) {
	for _, arch := range []Architecture{NonBlocking, Blocking} {
		for _, n := range []int{1, 24, 25, 256, 1000} {
			m, err := NewModel(FastEthernet, arch, PaperSwitch, n)
			if err != nil {
				t.Fatal(err)
			}
			if m.Switches() != m.Topology().Switches() {
				t.Fatalf("%v over %d: Switches %d, topology %d", arch, n, m.Switches(), m.Topology().Switches())
			}
		}
	}
}
