// Package netsim is a switch-level network simulator: where the system
// simulator (internal/sim) follows the paper in abstracting each
// communication network into a single queueing server, netsim builds the
// actual switch graph — the multi-stage fat-tree of §5.2 or the linear
// switch array of §5.3 — with a FIFO queue per directed link and
// store-and-forward forwarding.
//
// It exists to test the paper's two structural claims directly:
//
//   - Theorem 1: the fat-tree has full bisection bandwidth, so under
//     uniform traffic no internal link saturates before the edge links do;
//   - eq. 19/21: the linear array's inter-switch links form a
//     bisection-width-1 bottleneck whose average path length is (k+1)/3
//     and whose saturation throughput collapses with N.
//
// A Network is a topology, not an engine: the switch graph, its routing,
// the map from scenario elements to links, and the workload.System view
// under which switches play the destination pattern's "clusters".
// Its runs take the cluster model's sim.Options, and sim.RunTopology
// simulates it on the cluster model's engine, one sim.Center per link, so
// warm-up, measurement, service, workloads, scenarios and the result mean
// the same in both models (DESIGN.md §3). A Network is built once and
// only read by its runs, so replications share it.
package netsim

import (
	"fmt"
	"math"

	"hmscs/internal/network"
	"hmscs/internal/rng"
	"hmscs/internal/scenario"
	"hmscs/internal/sim"
)

// Kind labels the modelled topology.
type Kind int

const (
	// FatTree is the two-level folded-Clos fat-tree of paper §5.2.
	FatTree Kind = iota
	// LinearArray is the cascaded switch chain of paper §5.3.
	LinearArray
)

// String returns the topology's report label.
func (k Kind) String() string {
	if k == FatTree {
		return "fat-tree"
	}
	return "linear-array"
}

// Network is a built switch graph. It implements sim.Topology; nothing
// reads it but its runs, and none of them writes it.
type Network struct {
	Kind Kind
	N    int // endpoints
	Pr   int // switch ports
	Tech network.Technology
	Sw   network.Switch

	// links counts the directed channels, each a FIFO centre indexed by
	// link id. The first 2N are the host links; the rest are
	// switch-to-switch channels (the bisection-relevant ones in the linear
	// array).
	links int

	// Topology-specific routing state.
	leafOf     []int // endpoint -> leaf/chain switch index
	hostsPer   int   // endpoints per leaf/chain switch (last one may be short)
	numLeaves  int
	numSpines  int
	upLinks    [][]int32 // leaf -> per-spine uplink link index (fat-tree)
	downLinks  [][]int32 // spine -> per-leaf downlink link index (fat-tree)
	hostUp     []int32   // endpoint -> host->switch link index
	hostDown   []int32   // endpoint -> switch->host link index
	chainRight []int32   // chain switch i -> i+1 link index (linear array)
	chainLeft  []int32   // chain switch i+1 -> i link index
}

// TotalNodes implements workload.System: the endpoint count.
func (n *Network) TotalNodes() int { return n.N }

// NumClusters implements workload.System: switches play the role of
// clusters, so locality/hotspot patterns exercise the fabric exactly where
// the topology differs.
func (n *Network) NumClusters() int { return n.numLeaves }

// ClusterOf implements workload.System: the leaf/chain switch owning the
// endpoint.
func (n *Network) ClusterOf(node int) int { return n.leafOf[node] }

// Topo describes the built topology in the terms the scenario compiler
// resolves switch-level targets against, with the links each switch's
// failure takes down: a leaf's are leafLinks, a spine's its downlinks.
func (n *Network) Topo() scenario.NetTopo {
	leaves := make([][]int32, n.numLeaves)
	for l := range leaves {
		leaves[l] = n.leafLinks(l)
	}
	return scenario.NetTopo{
		Endpoints:  n.N,
		Leaves:     n.numLeaves,
		Spines:     n.numSpines,
		Chain:      n.Kind == LinearArray,
		LeafLinks:  leaves,
		SpineLinks: n.downLinks,
	}
}

// Links implements sim.Topology: the number of directed links.
func (n *Network) Links() int { return n.links }

// MaxRoute implements sim.Topology: the longest route's link count, four
// across a fat-tree's spines and the whole chain plus both host links in
// the linear array.
func (n *Network) MaxRoute() int {
	if n.Kind == FatTree {
		return 4
	}
	return n.numLeaves + 1
}

// ClusterRange implements workload.System: the half-open endpoint range of
// switch c.
func (n *Network) ClusterRange(c int) (int, int) {
	lo := c * n.hostsPer
	hi := lo + n.hostsPer
	if hi > n.N {
		hi = n.N
	}
	return lo, hi
}

// newNetwork returns an n-endpoint network of the given kind, with its
// endpoints all on switch 0 until BuildFatTree or BuildLinearArray places
// them.
func newNetwork(kind Kind, n, pr int, tech network.Technology, sw network.Switch) *Network {
	return &Network{
		Kind: kind, N: n, Pr: pr, Tech: tech, Sw: sw,
		leafOf:   make([]int, n),
		hostUp:   make([]int32, n),
		hostDown: make([]int32, n),
	}
}

// addLink adds a link and returns its id.
func (n *Network) addLink() int32 {
	n.links++
	return int32(n.links - 1)
}

// BuildFatTree constructs the two-level folded Clos matching the paper's
// construction for d = ⌈log_{Pr/2}(N/2)⌉ ≤ 2: leaves with Pr/2 host ports
// and Pr/2 up ports, spines with Pr down ports, every spine wired to every
// leaf. (All networks of the paper's N=256 platform have d ≤ 2. A single
// switch, d=1, degenerates to one leaf and no spines.)
func BuildFatTree(n, pr int, tech network.Technology, sw network.Switch) (*Network, error) {
	if err := validateBuild(n, pr, tech, sw); err != nil {
		return nil, err
	}
	half := pr / 2
	if n <= pr {
		// Single switch: hosts hang off one crossbar.
		net := newNetwork(FatTree, n, pr, tech, sw)
		net.numLeaves, net.numSpines = 1, 0
		net.hostsPer = n
		for e := 0; e < n; e++ {
			net.hostUp[e] = net.addLink()
			net.hostDown[e] = net.addLink()
		}
		return net, nil
	}
	numLeaves := ceilDiv(n, half)
	numSpines := ceilDiv(n, pr)
	if numLeaves > pr {
		return nil, fmt.Errorf("netsim: N=%d Pr=%d needs %d leaves > %d spine ports (depth > 2 not supported)",
			n, pr, numLeaves, pr)
	}
	net := newNetwork(FatTree, n, pr, tech, sw)
	net.numLeaves, net.numSpines = numLeaves, numSpines
	net.hostsPer = half
	for e := 0; e < n; e++ {
		net.leafOf[e] = e / half
		net.hostUp[e] = net.addLink()
		net.hostDown[e] = net.addLink()
	}
	net.upLinks = make([][]int32, numLeaves)
	net.downLinks = make([][]int32, numSpines)
	for s := 0; s < numSpines; s++ {
		net.downLinks[s] = make([]int32, numLeaves)
	}
	for l := 0; l < numLeaves; l++ {
		net.upLinks[l] = make([]int32, numSpines)
		for s := 0; s < numSpines; s++ {
			net.upLinks[l][s] = net.addLink()
			net.downLinks[s][l] = net.addLink()
		}
	}
	return net, nil
}

// BuildLinearArray constructs the paper's blocking topology: k = ⌈N/Pr⌉
// switches in a chain, hosts distributed Pr per switch, one channel per
// direction between neighbours.
func BuildLinearArray(n, pr int, tech network.Technology, sw network.Switch) (*Network, error) {
	if err := validateBuild(n, pr, tech, sw); err != nil {
		return nil, err
	}
	k := ceilDiv(n, pr)
	net := newNetwork(LinearArray, n, pr, tech, sw)
	net.numLeaves = k
	net.hostsPer = pr
	for e := 0; e < n; e++ {
		net.leafOf[e] = e / pr
		net.hostUp[e] = net.addLink()
		net.hostDown[e] = net.addLink()
	}
	net.chainRight = make([]int32, k-1)
	net.chainLeft = make([]int32, k-1)
	for i := 0; i < k-1; i++ {
		net.chainRight[i] = net.addLink()
		net.chainLeft[i] = net.addLink()
	}
	return net, nil
}

func validateBuild(n, pr int, tech network.Technology, sw network.Switch) error {
	if n < 2 {
		return fmt.Errorf("netsim: need at least 2 endpoints, got %d", n)
	}
	if err := tech.Validate(); err != nil {
		return err
	}
	if err := sw.Validate(); err != nil {
		return err
	}
	if pr != sw.Ports {
		return fmt.Errorf("netsim: pr %d disagrees with switch ports %d", pr, sw.Ports)
	}
	return nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Route implements sim.Topology: the ordered links from src to dst,
// appended onto path, with the switches crossed (a store-and-forward
// route crosses one switch fewer than it has links) and the tail delay
// paid once per message after its last link: NIC latency α plus each
// switch's fabric latency. On the fat-tree the spine is drawn uniformly
// among those up (multipath routing).
func (n *Network) Route(path []int32, st *rng.Stream, src, dst int, live []sim.Center) ([]int32, int32, float64) {
	base := len(path)
	a, b := n.leafOf[src], n.leafOf[dst]
	path = append(path, n.hostUp[src])
	switch {
	case n.Kind == LinearArray:
		for i := a; i < b; i++ {
			path = append(path, n.chainRight[i])
		}
		for i := a; i > b; i-- {
			path = append(path, n.chainLeft[i-1])
		}
	case n.numSpines > 0 && a != b:
		sp := n.pickSpine(st, live)
		path = append(path, n.upLinks[a][sp], n.downLinks[sp][b])
	}
	path = append(path, n.hostDown[dst])
	switches := len(path) - base - 1
	return path, int32(switches), n.Tech.Latency + float64(switches)*n.Sw.Latency
}

// pickSpine draws the route's spine. In a scenario run (live non-nil)
// the draw is uniform over the spines up at route time: a spine is down
// exactly while its failure holds its downlinks, and timeline events
// dispatch before same-instant traffic, so a spine failing at t is down
// for routes drawn at t. It is one Intn draw either way, and
// Intn(numUp) ≡ Intn(numSpines) when every spine is up, so a scenario
// without spine events is draw-identical to a stationary run. With no
// spine up the draw falls back to all spines — the message queues at the
// down spine until its repair.
func (n *Network) pickSpine(st *rng.Stream, live []sim.Center) int {
	if live == nil {
		return st.Intn(n.numSpines)
	}
	up := func(sp int) bool { return !live[n.downLinks[sp][0]].Failed() }
	numUp := 0
	for sp := 0; sp < n.numSpines; sp++ {
		if up(sp) {
			numUp++
		}
	}
	if numUp == 0 {
		return st.Intn(n.numSpines)
	}
	k := st.Intn(numUp)
	for sp := 0; sp < n.numSpines; sp++ {
		if up(sp) {
			if k == 0 {
				return sp
			}
			k--
		}
	}
	panic("netsim: pickSpine ran out of spines")
}

// leafLinks returns the output ports of leaf/chain switch l — the link
// queues its crossbar serves: the switch->host channels of its endpoints,
// its per-spine uplinks (fat-tree), and its inter-switch channels (linear
// array: right toward l+1 and left toward l-1, both sourced at l).
func (n *Network) leafLinks(l int) []int32 {
	lo, hi := n.ClusterRange(l)
	out := make([]int32, 0, hi-lo+n.numSpines+2)
	for e := lo; e < hi; e++ {
		out = append(out, n.hostDown[e])
	}
	if n.upLinks != nil {
		out = append(out, n.upLinks[l]...)
	}
	if l < len(n.chainRight) {
		out = append(out, n.chainRight[l])
	}
	if l > 0 && len(n.chainLeft) > 0 {
		out = append(out, n.chainLeft[l-1])
	}
	return out
}

// Run executes a closed-loop experiment on the network: every endpoint
// generates at lambda (msg/s) while idle and blocks until delivery (the
// paper's closed-loop assumption), every message is msgBytes long, and
// opts mean what they mean to the cluster model (its ServiceDist serves
// every link; OpenLoop must be false). It returns latency, throughput,
// the window's sample, switch hops and one Centers entry per link, host
// links first (see LinkUtilization). Run only reads the network, so
// concurrent runs may share it.
func (n *Network) Run(lambda float64, msgBytes int, opts sim.Options) (*sim.Result, error) {
	if !(lambda > 0) {
		return nil, fmt.Errorf("netsim: lambda %g must be positive", lambda)
	}
	if msgBytes < 1 {
		return nil, fmt.Errorf("netsim: message size %d must be >= 1", msgBytes)
	}
	if opts.MeasuredMessages < 1 {
		return nil, fmt.Errorf("netsim: need at least 1 measured message")
	}
	// Every link serves a message in msgBytes × β on average.
	return sim.RunTopology(n, lambda, float64(msgBytes)*n.Tech.Beta(), opts)
}

// LinkUtilization returns the highest utilisation among the host links
// and among the switch-to-switch links of an n-endpoint network's
// result, whose first 2n Centers are the host links. The two tell edge
// from fabric pressure.
func LinkUtilization(res *sim.Result, n int) (host, fabric float64) {
	for i, c := range res.Centers {
		if i < 2*n {
			host = math.Max(host, c.Utilization)
		} else {
			fabric = math.Max(fabric, c.Utilization)
		}
	}
	return host, fabric
}

// ContentionFreeLatency returns the zero-load end-to-end time of one
// message, the netsim analogue of the paper's eq. 11 / eq. 19 wire time
// (store-and-forward charges the transmission once per hop). On the
// fat-tree it is the longest path (three switches across the spines,
// one on a single switch); on the linear array it is the mean path, eq.
// 19's (k+1)/3 switches.
func (n *Network) ContentionFreeLatency(msgBytes int) float64 {
	perHop := float64(msgBytes) * n.Tech.Beta()
	var hops, switches float64
	switch n.Kind {
	case FatTree:
		if n.numSpines == 0 {
			hops, switches = 2, 1
		} else {
			hops, switches = 4, 3
		}
	default:
		k := float64(ceilDiv(n.N, n.Pr))
		switches = (k + 1) / 3
		hops = switches + 1
	}
	return n.Tech.Latency + switches*n.Sw.Latency + hops*perHop
}
