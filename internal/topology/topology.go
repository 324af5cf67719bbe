// Package topology implements the interconnect topologies used by the
// paper's communication-network models: the multi-stage fat-tree of the
// non-blocking model (paper §5.2, eq. 12–14) and the linear switch array of
// the blocking model (§5.3, eq. 17).
package topology

import (
	"fmt"
	"math"
)

// Topology describes an interconnection network built from switches.
type Topology interface {
	// Name returns a short identifier such as "fat-tree" or "linear-array".
	Name() string
	// Nodes returns the number of end nodes the network connects.
	Nodes() int
	// Switches returns the number of switch elements in the network.
	Switches() int
	// SwitchesTraversed returns the expected number of switches a message
	// crosses between a uniformly random source/destination pair.
	SwitchesTraversed() float64
	// BisectionWidth returns the minimum number of links cut when splitting
	// the node set into two equal halves (paper §5.1).
	BisectionWidth() int
	// FullBisection reports whether the network satisfies Definition 1:
	// bisection bandwidth equal to N/2 single-link bandwidths.
	FullBisection() bool
}

// ceilDiv returns ⌈a/b⌉ for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// FatTree is the multi-stage fat-tree of the paper's non-blocking model:
// Pr-port switches, middle stages with Pr/2 up-links and Pr/2 down-links,
// top stage all down-links.
type FatTree struct {
	N  int // end nodes
	Pr int // switch ports
}

// NewFatTree validates and constructs a fat-tree. Pr must be an even number
// of at least 4 so that middle stages can split ports evenly, and N >= 1.
func NewFatTree(n, pr int) (FatTree, error) {
	if n < 1 {
		return FatTree{}, fmt.Errorf("topology: fat-tree needs at least 1 node, got %d", n)
	}
	if pr < 4 || pr%2 != 0 {
		return FatTree{}, fmt.Errorf("topology: fat-tree switch ports must be even and >= 4, got %d", pr)
	}
	return FatTree{N: n, Pr: pr}, nil
}

// Name implements Topology.
func (f FatTree) Name() string { return "fat-tree" }

// Nodes implements Topology.
func (f FatTree) Nodes() int { return f.N }

// Stages returns the number of switch stages d (paper eq. 12):
// d = ⌈ log2(N/2) / log2(Pr/2) ⌉, with a minimum of one stage.
func (f FatTree) Stages() int {
	if f.N <= f.Pr {
		return 1
	}
	d := int(math.Ceil(math.Log2(float64(f.N)/2) / math.Log2(float64(f.Pr)/2)))
	if d < 1 {
		d = 1
	}
	return d
}

// Switches returns the switch count k (paper eq. 13):
// k = (d−1)·⌈2N/Pr⌉ + ⌈N/Pr⌉.
func (f FatTree) Switches() int {
	d := f.Stages()
	return (d-1)*ceilDiv(2*f.N, f.Pr) + ceilDiv(f.N, f.Pr)
}

// SwitchesTraversed returns 2d−1, the switches on an up-then-down route
// through all d stages (paper eq. 11).
func (f FatTree) SwitchesTraversed() float64 { return float64(2*f.Stages() - 1) }

// BisectionWidth returns ⌈N/Pr⌉·Pr/2 ≈ N/2 links (paper eq. 14 / Theorem 1).
func (f FatTree) BisectionWidth() int {
	// Eq. 14: 2 · (1/4)·⌈N/Pr⌉·Pr = ⌈N/Pr⌉·Pr/2, which equals ⌈N/2⌉ when
	// Pr divides N; we evaluate the paper's closed form directly.
	return ceilDiv(f.N, f.Pr) * f.Pr / 2
}

// FullBisection implements Topology; true per Theorem 1.
func (f FatTree) FullBisection() bool { return f.BisectionWidth() >= ceilDiv(f.N, 2) }

// LinearArray is the blocking model's chain of cascaded switches
// (paper §5.3): k = ⌈N/Pr⌉ switches in a line, bisection width 1.
type LinearArray struct {
	N  int
	Pr int
}

// NewLinearArray validates and constructs a linear switch array.
func NewLinearArray(n, pr int) (LinearArray, error) {
	if n < 1 {
		return LinearArray{}, fmt.Errorf("topology: linear array needs at least 1 node, got %d", n)
	}
	if pr < 2 {
		return LinearArray{}, fmt.Errorf("topology: linear array switch ports must be >= 2, got %d", pr)
	}
	return LinearArray{N: n, Pr: pr}, nil
}

// Name implements Topology.
func (l LinearArray) Name() string { return "linear-array" }

// Nodes implements Topology.
func (l LinearArray) Nodes() int { return l.N }

// Switches returns k = ⌈N/Pr⌉ (paper eq. 17).
func (l LinearArray) Switches() int { return ceilDiv(l.N, l.Pr) }

// SwitchesTraversed returns (k+1)/3, the paper's average traversed distance
// on a linear array of k switches under uniform traffic (eq. 19).
func (l LinearArray) SwitchesTraversed() float64 { return (float64(l.Switches()) + 1) / 3 }

// BisectionWidth implements Topology: cutting the middle link splits the
// chain, so the width is 1 whenever there is more than one switch; a single
// switch acts as a crossbar for its ports.
func (l LinearArray) BisectionWidth() int {
	if l.Switches() == 1 {
		// Degenerate single-switch network: bisection limited by the switch
		// fabric itself, treated as N/2 like a crossbar.
		return ceilDiv(l.N, 2)
	}
	return 1
}

// FullBisection implements Topology.
func (l LinearArray) FullBisection() bool { return l.BisectionWidth() >= ceilDiv(l.N, 2) }

// BlockingFactor returns the paper's throughput-slash factor N/2 (eq. 20-21):
// under uniform traffic only one of N/2 would-be crossers proceeds at a
// time. For N < 2 the factor is 1 (no contention possible).
func (l LinearArray) BlockingFactor() float64 {
	// Eq. 21 does not special-case a single switch (k = 1).
	if l.N < 2 {
		return 1
	}
	return float64(l.N) / 2
}
