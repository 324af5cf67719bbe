// Package workload defines the traffic offered to a simulated system along
// three independent axes, bundled by Generator and consumed by both the
// system simulator (internal/sim) and the switch-level simulator
// (internal/netsim):
//
//   - arrival processes (the paper's Poisson assumption 2 plus periodic,
//     MMPP-2 bursty, Pareto/Weibull heavy-tailed renewal, and trace-replay
//     extensions — all preserving the configured mean rate);
//   - destination patterns (the paper's uniform assumption 3 plus locality
//     and hotspot extensions);
//   - message-size distributions (the paper's fixed M plus extensions).
package workload

import (
	"fmt"

	"hmscs/internal/rng"
)

// System exposes the node/cluster layout a pattern needs to pick
// destinations. internal/sim implements it for a core.Config.
type System interface {
	// TotalNodes returns the number of processors in the system.
	TotalNodes() int
	// NumClusters returns the number of clusters.
	NumClusters() int
	// ClusterOf returns the cluster index owning the given global node id.
	ClusterOf(node int) int
	// ClusterRange returns the half-open range [lo, hi) of global node ids
	// in cluster c.
	ClusterRange(c int) (lo, hi int)
}

// Pattern selects a destination node for each generated message.
type Pattern interface {
	// Name identifies the pattern in reports.
	Name() string
	// Dest returns the destination node for a message from src. It must
	// never return src itself.
	Dest(st *rng.Stream, sys System, src int) int
}

// Uniform is the paper's assumption 3: the destination is any other node
// with equal probability.
type Uniform struct{}

// Name implements Pattern.
func (Uniform) Name() string { return "uniform" }

// Dest implements Pattern.
func (Uniform) Dest(st *rng.Stream, sys System, src int) int {
	n := sys.TotalNodes()
	d := st.Intn(n - 1)
	if d >= src {
		d++
	}
	return d
}

// LocalBias keeps a message inside the source cluster with probability
// Locality, and otherwise picks a uniformly random remote node. With
// Locality equal to the uniform pattern's local probability it reduces to
// Uniform; larger values model applications with communication locality,
// the regime where the paper notes blocking networks become viable.
type LocalBias struct {
	// Locality is the probability of an intra-cluster destination.
	Locality float64
}

// Name implements Pattern.
func (l LocalBias) Name() string { return fmt.Sprintf("local-bias(%.2f)", l.Locality) }

// Dest implements Pattern.
func (l LocalBias) Dest(st *rng.Stream, sys System, src int) int {
	lo, hi := sys.ClusterRange(sys.ClusterOf(src))
	clusterSize := hi - lo
	n := sys.TotalNodes()
	stayLocal := st.Float64() < l.Locality
	if clusterSize <= 1 {
		stayLocal = false // no other local node exists
	}
	if n-clusterSize == 0 {
		stayLocal = true // no remote node exists
	}
	if stayLocal {
		d := lo + st.Intn(clusterSize-1)
		if d >= src {
			d++
		}
		return d
	}
	// Uniform over the n - clusterSize remote nodes.
	d := st.Intn(n - clusterSize)
	if d >= lo {
		d += clusterSize
	}
	return d
}

// Hotspot sends each message to a fixed hot node with probability Fraction
// and uniformly otherwise, modelling a shared server or reduction root.
type Hotspot struct {
	Node     int
	Fraction float64
}

// Name implements Pattern.
func (h Hotspot) Name() string { return fmt.Sprintf("hotspot(node=%d,p=%.2f)", h.Node, h.Fraction) }

// Dest implements Pattern.
func (h Hotspot) Dest(st *rng.Stream, sys System, src int) int {
	if src != h.Node && st.Float64() < h.Fraction {
		return h.Node
	}
	return Uniform{}.Dest(st, sys, src)
}

// SizeDist draws per-message payload sizes in bytes.
type SizeDist interface {
	// Name identifies the distribution in reports.
	Name() string
	// Sample draws one message size.
	Sample(st *rng.Stream) int
	// Mean returns the expected size.
	Mean() float64
}

// FixedSize is the paper's assumption 6: every message is exactly Bytes long.
type FixedSize struct{ Bytes int }

// Name implements SizeDist.
func (f FixedSize) Name() string { return fmt.Sprintf("fixed(%dB)", f.Bytes) }

// Sample implements SizeDist.
func (f FixedSize) Sample(*rng.Stream) int { return f.Bytes }

// Mean implements SizeDist.
func (f FixedSize) Mean() float64 { return float64(f.Bytes) }

// Bimodal mixes small control messages and large payloads, the classic
// cluster-traffic shape.
type Bimodal struct {
	Small, Large int
	SmallProb    float64
}

// Name implements SizeDist.
func (b Bimodal) Name() string {
	return fmt.Sprintf("bimodal(%dB/%dB,p=%.2f)", b.Small, b.Large, b.SmallProb)
}

// Sample implements SizeDist.
func (b Bimodal) Sample(st *rng.Stream) int {
	if st.Float64() < b.SmallProb {
		return b.Small
	}
	return b.Large
}

// Mean implements SizeDist.
func (b Bimodal) Mean() float64 {
	return b.SmallProb*float64(b.Small) + (1-b.SmallProb)*float64(b.Large)
}

// UniformSize draws sizes uniformly from [Lo, Hi].
type UniformSize struct{ Lo, Hi int }

// Name implements SizeDist.
func (u UniformSize) Name() string { return fmt.Sprintf("uniform(%d..%dB)", u.Lo, u.Hi) }

// Sample implements SizeDist.
func (u UniformSize) Sample(st *rng.Stream) int {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + st.Intn(u.Hi-u.Lo+1)
}

// Mean implements SizeDist.
func (u UniformSize) Mean() float64 { return (float64(u.Lo) + float64(u.Hi)) / 2 }
