// Package network implements the paper's communication-network models: the
// technology parameters (latency α and per-byte time β of eq. 10) and the
// non-blocking (fat-tree, eq. 11) and blocking (linear switch array, eq. 21)
// message-time models that give each queueing service centre its mean
// service time.
package network

import (
	"fmt"
	"math"

	"hmscs/internal/topology"
)

// MB is one megabyte in bytes, the unit the paper quotes bandwidth in.
const MB = 1e6

// Technology holds the link-level parameters of an interconnect technology.
// Latency is the paper's α (seconds); Bandwidth is in bytes/second, so the
// per-byte transfer time β = 1/Bandwidth.
type Technology struct {
	Name      string
	Latency   float64 // α, seconds
	Bandwidth float64 // bytes per second
}

// Validate checks the technology parameters.
func (t Technology) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("network: technology needs a name")
	}
	if !(t.Latency >= 0) || math.IsInf(t.Latency, 1) {
		return fmt.Errorf("network: %s latency %g is invalid", t.Name, t.Latency)
	}
	if !(t.Bandwidth > 0) || math.IsInf(t.Bandwidth, 1) {
		return fmt.Errorf("network: %s bandwidth %g is invalid", t.Name, t.Bandwidth)
	}
	return nil
}

// Beta returns the per-byte transmission time β = 1/bandwidth (eq. 10).
func (t Technology) Beta() float64 { return 1 / t.Bandwidth }

func (t Technology) String() string {
	return fmt.Sprintf("%s(α=%.3gµs, %g MB/s)", t.Name, t.Latency*1e6, t.Bandwidth/MB)
}

// Paper Table 2 technologies. The latency/bandwidth figures come from the
// paper's Table 2, which cites Lobosco & de Amorim's measurements.
var (
	// GigabitEthernet: α=80µs, 94 MB/s.
	GigabitEthernet = Technology{Name: "GigabitEthernet", Latency: 80e-6, Bandwidth: 94 * MB}
	// FastEthernet: α=50µs, 10.5 MB/s.
	FastEthernet = Technology{Name: "FastEthernet", Latency: 50e-6, Bandwidth: 10.5 * MB}
	// Myrinet: extension technology (not in Table 2) with the figures from
	// the same measurement study the paper cites [16].
	Myrinet = Technology{Name: "Myrinet", Latency: 9e-6, Bandwidth: 160 * MB}
	// Infiniband: extension technology for design-space exploration.
	Infiniband = Technology{Name: "Infiniband", Latency: 6e-6, Bandwidth: 800 * MB}
)

// TechnologyByName looks up one of the built-in technologies.
func TechnologyByName(name string) (Technology, error) {
	switch name {
	case "GE", "GigabitEthernet", "gigabit":
		return GigabitEthernet, nil
	case "FE", "FastEthernet", "fast":
		return FastEthernet, nil
	case "Myrinet", "myrinet":
		return Myrinet, nil
	case "Infiniband", "infiniband", "IB":
		return Infiniband, nil
	}
	return Technology{}, fmt.Errorf("network: unknown technology %q", name)
}

// Architecture selects the interconnect model of paper §5.
type Architecture int

const (
	// NonBlocking is the multi-stage fat-tree model (§5.2).
	NonBlocking Architecture = iota
	// Blocking is the linear switch-array model (§5.3).
	Blocking
)

func (a Architecture) String() string {
	switch a {
	case NonBlocking:
		return "non-blocking"
	case Blocking:
		return "blocking"
	default:
		return fmt.Sprintf("Architecture(%d)", int(a))
	}
}

// ParseArchitecture converts a CLI string into an Architecture.
func ParseArchitecture(s string) (Architecture, error) {
	switch s {
	case "non-blocking", "nonblocking", "fat-tree":
		return NonBlocking, nil
	case "blocking", "linear-array":
		return Blocking, nil
	}
	return 0, fmt.Errorf("network: unknown architecture %q", s)
}

// Switch holds switch-fabric parameters shared by all networks of a system.
type Switch struct {
	Ports   int     // Pr
	Latency float64 // α_sw, seconds
}

// Validate checks the switch parameters.
func (s Switch) Validate() error {
	if s.Ports < 4 || s.Ports%2 != 0 {
		return fmt.Errorf("network: switch ports must be even and >= 4, got %d", s.Ports)
	}
	if !(s.Latency >= 0) {
		return fmt.Errorf("network: switch latency %g is invalid", s.Latency)
	}
	return nil
}

// PaperSwitch is Table 2's switch fabric: 24 ports, 10µs latency.
var PaperSwitch = Switch{Ports: 24, Latency: 10e-6}

// Model computes per-message times for one communication network: a given
// technology carrying fixed-size messages between Endpoints end nodes
// through the chosen architecture. It is a plain value holding its
// topology, so building one allocates nothing.
type Model struct {
	Tech      Technology
	Arch      Architecture
	Switch    Switch
	Endpoints int

	fatTree topology.FatTree     // set when Arch is NonBlocking
	linear  topology.LinearArray // set when Arch is Blocking
}

// NewModel validates the parameters and pre-builds the topology.
func NewModel(tech Technology, arch Architecture, sw Switch, endpoints int) (Model, error) {
	if err := tech.Validate(); err != nil {
		return Model{}, err
	}
	if err := sw.Validate(); err != nil {
		return Model{}, err
	}
	if endpoints < 1 {
		return Model{}, fmt.Errorf("network: need at least 1 endpoint, got %d", endpoints)
	}
	m := Model{Tech: tech, Arch: arch, Switch: sw, Endpoints: endpoints}
	var err error
	switch arch {
	case NonBlocking:
		m.fatTree, err = topology.NewFatTree(endpoints, sw.Ports)
	case Blocking:
		m.linear, err = topology.NewLinearArray(endpoints, sw.Ports)
	default:
		err = fmt.Errorf("network: unknown architecture %v", arch)
	}
	if err != nil {
		return Model{}, err
	}
	return m, nil
}

// Topology returns the underlying switch topology.
func (m *Model) Topology() topology.Topology {
	if m.Arch == NonBlocking {
		return m.fatTree
	}
	return m.linear
}

// Switches returns the topology's switch count, Topology().Switches()
// without boxing the topology in an interface.
func (m *Model) Switches() int {
	if m.Arch == NonBlocking {
		return m.fatTree.Switches()
	}
	return m.linear.Switches()
}

// switchesTraversed is Topology().SwitchesTraversed(), unboxed.
func (m *Model) switchesTraversed() float64 {
	if m.Arch == NonBlocking {
		return m.fatTree.SwitchesTraversed()
	}
	return m.linear.SwitchesTraversed()
}

// TransmissionTime returns the no-contention wire time T_W for a message of
// msgBytes: eq. 11 for the fat-tree, eq. 19 for the linear array (without
// the blocking term).
func (m *Model) TransmissionTime(msgBytes int) float64 {
	if msgBytes < 0 {
		panic(fmt.Sprintf("network: negative message size %d", msgBytes))
	}
	hops := m.switchesTraversed()
	return m.Tech.Latency + hops*m.Switch.Latency + float64(msgBytes)*m.Tech.Beta()
}

// BlockingTime returns T_B of eq. 20: (N/2 − 1)·M·β for the blocking
// architecture, zero for non-blocking (Theorem 1).
func (m *Model) BlockingTime(msgBytes int) float64 {
	if m.Arch == NonBlocking {
		return 0
	}
	factor := m.linear.BlockingFactor() - 1
	if factor < 0 {
		factor = 0
	}
	return factor * float64(msgBytes) * m.Tech.Beta()
}

// MeanServiceTime returns the total mean message time used as the service
// time of the M/M/1 centre modelling this network: eq. 11 (non-blocking) or
// eq. 21 (blocking, where the N/2 factor multiplies the payload term).
func (m *Model) MeanServiceTime(msgBytes int) float64 {
	return m.TransmissionTime(msgBytes) + m.BlockingTime(msgBytes)
}

// ServiceRate returns µ = 1 / MeanServiceTime.
func (m *Model) ServiceRate(msgBytes int) float64 {
	return 1 / m.MeanServiceTime(msgBytes)
}

func (m *Model) String() string {
	return fmt.Sprintf("%s %s over %d endpoints (%d switches)",
		m.Arch, m.Tech.Name, m.Endpoints, m.Switches())
}
