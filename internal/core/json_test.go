package core

import (
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hmscs/internal/network"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	orig := mustPaperConfig(t, Case1, 16, 1024, network.Blocking)
	data, err := orig.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if back.NumClusters() != 16 || back.TotalNodes() != 256 {
		t.Fatalf("round trip lost structure: C=%d N=%d", back.NumClusters(), back.TotalNodes())
	}
	if back.Arch != network.Blocking || back.MessageBytes != 1024 {
		t.Fatal("round trip lost scalar fields")
	}
	if back.Clusters[0].ICN1 != network.GigabitEthernet {
		t.Fatalf("round trip lost technology: %+v", back.Clusters[0].ICN1)
	}
	if back.Switch.Ports != orig.Switch.Ports {
		t.Fatalf("round trip lost switch ports: %+v vs %+v", back.Switch, orig.Switch)
	}
	// The µs conversion may leave one ULP of float noise.
	if d := back.Switch.Latency - orig.Switch.Latency; d > 1e-12 || d < -1e-12 {
		t.Fatalf("round trip drifted switch latency: %+v vs %+v", back.Switch, orig.Switch)
	}
}

func TestConfigJSONCustomTechnology(t *testing.T) {
	custom := network.Technology{Name: "Quadrics", Latency: 5e-6, Bandwidth: 340e6}
	orig := &Config{
		Clusters: []Cluster{
			{Nodes: 8, Lambda: 42, ICN1: custom, ECN1: network.FastEthernet},
		},
		ICN2: custom, Arch: network.NonBlocking,
		Switch: network.PaperSwitch, MessageBytes: 2048,
	}
	data, err := orig.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Quadrics") || !strings.Contains(string(data), "latency_us") {
		t.Fatalf("custom technology not serialised explicitly:\n%s", data)
	}
	var back Config
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if back.ICN2.Name != "Quadrics" || back.ICN2.Bandwidth != 340e6 {
		t.Fatalf("custom technology lost: %+v", back.ICN2)
	}
}

func TestConfigJSONHumanUnits(t *testing.T) {
	cfg := mustPaperConfig(t, Case2, 4, 512, network.NonBlocking)
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	// Built-in technologies serialise by name only.
	if !strings.Contains(s, "FastEthernet") || strings.Contains(s, "1.05e+07") {
		t.Fatalf("expected name-only technologies:\n%s", s)
	}
	if !strings.Contains(s, `"switch_latency_us":10`) {
		t.Fatalf("switch latency not in µs:\n%s", s)
	}
}

func TestConfigJSONRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"bad json":    `{`,
		"bad arch":    `{"clusters":[{"nodes":2,"lambda_per_s":1,"icn1":{"name":"GE"},"ecn1":{"name":"FE"}}],"icn2":{"name":"FE"},"arch":"star","switch_ports":24,"switch_latency_us":10,"message_bytes":64}`,
		"bad tech":    `{"clusters":[{"nodes":2,"lambda_per_s":1,"icn1":{"name":"token-ring"},"ecn1":{"name":"FE"}}],"icn2":{"name":"FE"},"arch":"blocking","switch_ports":24,"switch_latency_us":10,"message_bytes":64}`,
		"no clusters": `{"clusters":[],"icn2":{"name":"FE"},"arch":"blocking","switch_ports":24,"switch_latency_us":10,"message_bytes":64}`,
		"bad lambda":  `{"clusters":[{"nodes":2,"lambda_per_s":0,"icn1":{"name":"GE"},"ecn1":{"name":"FE"}}],"icn2":{"name":"FE"},"arch":"blocking","switch_ports":24,"switch_latency_us":10,"message_bytes":64}`,
	}
	for name, data := range cases {
		var cfg Config
		if err := cfg.UnmarshalJSON([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSaveAndLoadConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "system.json")
	orig := mustPaperConfig(t, Case1, 8, 1024, network.NonBlocking)
	if err := SaveConfig(orig, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != orig.String() {
		t.Fatalf("round trip mismatch:\n%s\n%s", back.String(), orig.String())
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	// Saving an invalid config must fail before touching the disk.
	if err := SaveConfig(&Config{}, path); err == nil {
		t.Error("invalid config saved")
	}
}

// TestConfigJSONHeterogeneousRoundTrip covers the Cluster-of-Clusters
// case the capacity planner emits: unequal node counts, per-cluster rates
// and mixed technologies must survive the round trip, re-validate, and
// keep the generalised out-of-cluster probability.
func TestConfigJSONHeterogeneousRoundTrip(t *testing.T) {
	custom := network.Technology{Name: "Quadrics", Latency: 5e-6, Bandwidth: 340e6}
	orig := &Config{
		Clusters: []Cluster{
			{Nodes: 32, Lambda: 100, ICN1: network.GigabitEthernet, ECN1: network.FastEthernet},
			{Nodes: 16, Lambda: 250, ICN1: network.Myrinet, ECN1: network.GigabitEthernet},
			{Nodes: 8, Lambda: 400, ICN1: custom, ECN1: network.FastEthernet},
			{Nodes: 8, Lambda: 50, ICN1: network.Infiniband, ECN1: network.FastEthernet},
		},
		ICN2: network.GigabitEthernet, Arch: network.Blocking,
		Switch: network.PaperSwitch, MessageBytes: 2048,
	}
	if err := orig.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := orig.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if back.Homogeneous() {
		t.Fatal("round trip flattened a heterogeneous config")
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped config fails validation: %v", err)
	}
	if len(back.Clusters) != len(orig.Clusters) {
		t.Fatalf("cluster count %d, want %d", len(back.Clusters), len(orig.Clusters))
	}
	for i := range orig.Clusters {
		o, b := orig.Clusters[i], back.Clusters[i]
		if b.Nodes != o.Nodes || b.Lambda != o.Lambda {
			t.Fatalf("cluster %d lost layout: %+v vs %+v", i, b, o)
		}
		if b.ICN1.Name != o.ICN1.Name || b.ECN1.Name != o.ECN1.Name {
			t.Fatalf("cluster %d lost technologies: %+v vs %+v", i, b, o)
		}
	}
	if back.Clusters[2].ICN1.Bandwidth != custom.Bandwidth {
		t.Fatalf("custom technology parameters lost: %+v", back.Clusters[2].ICN1)
	}

	// POut must agree with the hand-derived generalisation
	// Pᵢ = (N_T − Nᵢ)/(N_T − 1) on both sides of the round trip.
	nt := orig.TotalNodes()
	if nt != 64 || back.TotalNodes() != nt {
		t.Fatalf("total nodes %d/%d, want 64", nt, back.TotalNodes())
	}
	for i, cl := range orig.Clusters {
		want := float64(nt-cl.Nodes) / float64(nt-1)
		if got := orig.POut(i); math.Abs(got-want) > 1e-15 {
			t.Errorf("POut(%d) = %v, want %v", i, got, want)
		}
		if got := back.POut(i); math.Abs(got-want) > 1e-15 {
			t.Errorf("round-tripped POut(%d) = %v, want %v", i, got, want)
		}
	}
	// The homogeneous special case reduces to the paper's eq. 8:
	// P = (C−1)·N0 / (C·N0 − 1).
	homog := mustPaperConfig(t, Case1, 16, 1024, network.NonBlocking)
	c, n0 := 16.0, 16.0
	if want, got := (c-1)*n0/(c*n0-1), homog.POut(3); math.Abs(got-want) > 1e-15 {
		t.Errorf("homogeneous POut = %v, want eq.8 value %v", got, want)
	}
}

// TestConfigJSONRoundTripIsExact pins the codec's µs conversion: parsing
// divides by 1e6 what marshalling multiplied by 1e6, so a configuration
// built in memory survives SaveConfig → LoadConfig bit for bit, and a
// value read from JSON is a fixed point of every further round trip. A
// configuration travels inline in experiment specs, which the server
// and its workers re-marshal, so one ulp lost per round would move a
// remote run away from the local one.
func TestConfigJSONRoundTripIsExact(t *testing.T) {
	sw := network.PaperSwitch
	orig, err := NewSuperCluster(4, 16, 250, network.GigabitEthernet, network.FastEthernet, network.NonBlocking, sw, 1024)
	if err != nil {
		t.Fatal(err)
	}
	custom := network.Technology{Name: "Custom", Latency: 3.3e-6, Bandwidth: 123.4e6}
	orig.Clusters[1].ICN1 = custom
	path := filepath.Join(t.TempDir(), "system.json")
	if err := SaveConfig(orig, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("SaveConfig → LoadConfig changed the configuration:\n%+v\nvs\n%+v", orig, back)
	}

	data := []byte(`{"clusters":[{"nodes":8,"lambda_per_s":250,"icn1":{"name":"X","latency_us":12.5,"bandwidth_mb_s":123.4},"ecn1":{"name":"GE"}}],` +
		`"icn2":{"name":"GE"},"arch":"non-blocking","switch_ports":24,"switch_latency_us":12.5,"message_bytes":1024}`)
	var first Config
	if err := first.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	cur := first
	for round := 1; round <= 3; round++ {
		out, err := cur.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var next Config
		if err := next.UnmarshalJSON(out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, next) {
			t.Fatalf("round %d moved the configuration: switch latency %v → %v, icn1 %+v → %+v",
				round, first.Switch.Latency, next.Switch.Latency, first.Clusters[0].ICN1, next.Clusters[0].ICN1)
		}
		cur = next
	}
}
