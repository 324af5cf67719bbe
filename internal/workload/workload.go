// Package workload defines the traffic offered to a simulated system along
// two independent axes, bundled by Generator and consumed by both the
// system simulator (internal/sim) and the switch-level simulator
// (internal/netsim):
//
//   - arrival processes (the paper's Poisson assumption 2 plus periodic,
//     MMPP-2 bursty, Pareto/Weibull heavy-tailed renewal, and trace-replay
//     extensions — all preserving the configured mean rate);
//   - destination patterns (the paper's uniform assumption 3 plus locality
//     and hotspot extensions).
//
// Every message is the configuration's fixed M bytes long (assumption 6),
// so message size is an engine parameter, not a workload axis.
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
