package plan

import (
	"encoding/json"
	"fmt"
	"os"

	"hmscs/internal/core"
	"hmscs/internal/network"
)

// jsonSpace is the on-disk form of a Space. Technologies round-trip
// through the same core.TechJSON form configuration files use, so a
// space file and the configurations the planner emits agree byte for
// byte on how a technology is spelled.
type jsonSpace struct {
	Clusters        []int           `json:"clusters,omitempty"`
	NodesPerCluster []int           `json:"nodes_per_cluster,omitempty"`
	Splits          [][]int         `json:"splits,omitempty"`
	ICN1            []core.TechJSON `json:"icn1"`
	ECN1            []core.TechJSON `json:"ecn1"`
	ICN2            []core.TechJSON `json:"icn2"`
	Archs           []string        `json:"archs"`
	Lambda          float64         `json:"lambda_per_s"`
	Headroom        []float64       `json:"headroom,omitempty"`
	MessageBytes    int             `json:"message_bytes"`
	SwitchPorts     int             `json:"switch_ports"`
	SwitchLatUS     float64         `json:"switch_latency_us"`
	MaxCandidates   int             `json:"max_candidates,omitempty"`
}

// MarshalJSON serialises the space with the same conventions as
// core.Config files: technology names for built-ins, µs switch latency.
func (s *Space) MarshalJSON() ([]byte, error) {
	j := jsonSpace{
		Clusters:        s.Clusters,
		NodesPerCluster: s.NodesPerCluster,
		Splits:          s.Splits,
		Lambda:          s.Lambda,
		Headroom:        s.Headroom,
		MessageBytes:    s.MessageBytes,
		SwitchPorts:     s.Switch.Ports,
		SwitchLatUS:     s.Switch.Latency * 1e6,
		MaxCandidates:   s.MaxCandidates,
	}
	for _, t := range s.ICN1 {
		j.ICN1 = append(j.ICN1, core.TechToJSON(t))
	}
	for _, t := range s.ECN1 {
		j.ECN1 = append(j.ECN1, core.TechToJSON(t))
	}
	for _, t := range s.ICN2 {
		j.ICN2 = append(j.ICN2, core.TechToJSON(t))
	}
	for _, a := range s.Archs {
		j.Archs = append(j.Archs, a.String())
	}
	return json.MarshalIndent(j, "", "  ")
}

// UnmarshalJSON parses the on-disk form and validates the result. The
// switch latency's µs are divided by 1e6, as in core.TechFromJSON, so
// a parsed space is a fixed point of every further round trip.
func (s *Space) UnmarshalJSON(data []byte) error {
	var j jsonSpace
	if err := json.Unmarshal(data, &j); err != nil {
		return fmt.Errorf("plan: parsing space: %w", err)
	}
	out := Space{
		Clusters:        j.Clusters,
		NodesPerCluster: j.NodesPerCluster,
		Splits:          j.Splits,
		Lambda:          j.Lambda,
		Headroom:        j.Headroom,
		MessageBytes:    j.MessageBytes,
		Switch:          network.Switch{Ports: j.SwitchPorts, Latency: j.SwitchLatUS / 1e6},
		MaxCandidates:   j.MaxCandidates,
	}
	roles := []struct {
		name string
		src  []core.TechJSON
		dst  *[]network.Technology
	}{
		{"icn1", j.ICN1, &out.ICN1},
		{"ecn1", j.ECN1, &out.ECN1},
		{"icn2", j.ICN2, &out.ICN2},
	}
	for _, role := range roles {
		for i, jt := range role.src {
			t, err := core.TechFromJSON(jt)
			if err != nil {
				return fmt.Errorf("plan: %s[%d]: %w", role.name, i, err)
			}
			*role.dst = append(*role.dst, t)
		}
	}
	for i, a := range j.Archs {
		arch, err := network.ParseArchitecture(a)
		if err != nil {
			return fmt.Errorf("plan: archs[%d]: %w", i, err)
		}
		out.Archs = append(out.Archs, arch)
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*s = out
	return nil
}

// LoadSpace reads and validates a design-space file.
func LoadSpace(path string) (*Space, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("plan: reading space: %w", err)
	}
	sp := &Space{}
	if err := sp.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return sp, nil
}

// SaveSpace writes the design space as indented JSON.
func SaveSpace(sp *Space, path string) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	data, err := sp.MarshalJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
