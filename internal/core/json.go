package core

import (
	"encoding/json"
	"fmt"
	"os"

	"hmscs/internal/network"
)

// TechJSON serialises a technology either as a well-known name ("GE") or
// as explicit parameters. It is shared by configuration files and the
// capacity planner's design-space files (internal/plan), so the two
// round-trip technologies identically.
type TechJSON struct {
	Name        string  `json:"name,omitempty"`
	LatencyUS   float64 `json:"latency_us,omitempty"`
	BandwidthMB float64 `json:"bandwidth_mb_s,omitempty"`
}

// TechToJSON converts a technology to its on-disk form: built-ins
// serialise by name alone, everything else with explicit human-friendly
// parameters (microseconds, MB/s).
func TechToJSON(t network.Technology) TechJSON {
	switch t {
	case network.GigabitEthernet, network.FastEthernet, network.Myrinet, network.Infiniband:
		return TechJSON{Name: t.Name}
	}
	return TechJSON{Name: t.Name, LatencyUS: t.Latency * 1e6, BandwidthMB: t.Bandwidth / 1e6}
}

// TechFromJSON parses the on-disk form: explicit parameters win; a bare
// name resolves against the built-in technologies. Microseconds are
// divided by 1e6, the inverse of TechToJSON's multiplication, so a
// parsed value is a fixed point of every further round trip
// (multiplying by 1e-6, which is not exact in binary, lost an ulp per
// trip).
func TechFromJSON(j TechJSON) (network.Technology, error) {
	if j.LatencyUS == 0 && j.BandwidthMB == 0 {
		return network.TechnologyByName(j.Name)
	}
	t := network.Technology{
		Name:      j.Name,
		Latency:   j.LatencyUS / 1e6,
		Bandwidth: j.BandwidthMB * 1e6,
	}
	if err := t.Validate(); err != nil {
		return network.Technology{}, err
	}
	return t, nil
}

// jsonCluster mirrors Cluster for serialisation.
type jsonCluster struct {
	Nodes  int      `json:"nodes"`
	Lambda float64  `json:"lambda_per_s"`
	ICN1   TechJSON `json:"icn1"`
	ECN1   TechJSON `json:"ecn1"`
}

// jsonConfig is the on-disk form of a Config.
type jsonConfig struct {
	Clusters     []jsonCluster `json:"clusters"`
	ICN2         TechJSON      `json:"icn2"`
	Arch         string        `json:"arch"`
	SwitchPorts  int           `json:"switch_ports"`
	SwitchLatUS  float64       `json:"switch_latency_us"`
	MessageBytes int           `json:"message_bytes"`
}

// MarshalJSON serialises the configuration with human-friendly units
// (microseconds, MB/s) and technology names for the built-ins.
func (c *Config) MarshalJSON() ([]byte, error) {
	j := jsonConfig{
		ICN2:         TechToJSON(c.ICN2),
		Arch:         c.Arch.String(),
		SwitchPorts:  c.Switch.Ports,
		SwitchLatUS:  c.Switch.Latency * 1e6,
		MessageBytes: c.MessageBytes,
	}
	for _, cl := range c.Clusters {
		j.Clusters = append(j.Clusters, jsonCluster{
			Nodes:  cl.Nodes,
			Lambda: cl.Lambda,
			ICN1:   TechToJSON(cl.ICN1),
			ECN1:   TechToJSON(cl.ECN1),
		})
	}
	return json.MarshalIndent(j, "", "  ")
}

// UnmarshalJSON parses the on-disk form and validates the result. The
// switch latency's µs are divided by 1e6, as in TechFromJSON.
func (c *Config) UnmarshalJSON(data []byte) error {
	var j jsonConfig
	if err := json.Unmarshal(data, &j); err != nil {
		return fmt.Errorf("core: parsing config: %w", err)
	}
	arch, err := network.ParseArchitecture(j.Arch)
	if err != nil {
		return err
	}
	icn2, err := TechFromJSON(j.ICN2)
	if err != nil {
		return fmt.Errorf("core: icn2: %w", err)
	}
	out := Config{
		ICN2:         icn2,
		Arch:         arch,
		Switch:       network.Switch{Ports: j.SwitchPorts, Latency: j.SwitchLatUS / 1e6},
		MessageBytes: j.MessageBytes,
	}
	for i, jc := range j.Clusters {
		icn1, err := TechFromJSON(jc.ICN1)
		if err != nil {
			return fmt.Errorf("core: cluster %d icn1: %w", i, err)
		}
		ecn1, err := TechFromJSON(jc.ECN1)
		if err != nil {
			return fmt.Errorf("core: cluster %d ecn1: %w", i, err)
		}
		out.Clusters = append(out.Clusters, Cluster{
			Nodes: jc.Nodes, Lambda: jc.Lambda, ICN1: icn1, ECN1: ecn1,
		})
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*c = out
	return nil
}

// LoadConfig reads and validates a configuration file.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading config: %w", err)
	}
	cfg := &Config{}
	if err := cfg.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return cfg, nil
}

// SaveConfig writes the configuration as indented JSON.
func SaveConfig(cfg *Config, path string) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	data, err := cfg.MarshalJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
