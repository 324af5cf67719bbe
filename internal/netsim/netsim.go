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
// Like the system simulator, netsim runs on sim's typed event core: each
// message is a pooled record whose route is walked by a per-hop state
// machine, so the steady-state event loop does not allocate. Traffic comes
// from the same workload.Generator the system simulator consumes — arrival
// process (Poisson, MMPP bursty, heavy-tailed, trace replay), destination
// pattern (uniform, hotspot, Zipf, ...) and message-size distribution —
// with switches acting as the pattern's "clusters", so every scenario of
// the system simulator also runs at switch level.
package netsim

import (
	"fmt"
	"math"
	"slices"

	"hmscs/internal/network"
	"hmscs/internal/rng"
	"hmscs/internal/scenario"
	"hmscs/internal/sim"
	"hmscs/internal/stats"
	"hmscs/internal/telemetry"
	"hmscs/internal/workload"
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

// Event kinds of the switch-level simulator.
const (
	// nvGenerate fires when an endpoint's think time expires; idx is the
	// endpoint id.
	nvGenerate sim.EventKind = iota
	// nvLinkDone fires when a link completes a transmission; idx is the
	// link id.
	nvLinkDone
	// nvDeliver fires after the fixed (NIC + switch fabric) latency of a
	// message that cleared its last link; idx is the message index.
	nvDeliver
	// nvScenario fires when a timeline event mutates the network; idx is
	// the index into the compiled scenario's event list. Scheduled at
	// setup, before any traffic, so same-time ties resolve timeline-first.
	nvScenario
)

// link is one directed channel with its own FIFO queue.
type link struct {
	name   string
	center *sim.Center
	// interSwitch marks switch-to-switch channels (the bisection-relevant
	// ones in the linear array).
	interSwitch bool
}

// nmsg is one in-flight message in the pooled message table. The path
// buffer is retained across pool recycling, so steady-state routing does
// not allocate.
type nmsg struct {
	born float64
	path []int32
	svc  float64 // per-link mean transmission time for this message's size
	pos  int32
	src  int32
	dst  int32
	hops int32
}

// pendDelivery is a delivery awaiting its instant's canonical commit.
type pendDelivery struct {
	born float64
	src  int32
	hops int32
}

// Network is an instantiated switch graph ready to simulate. It implements
// sim.Handler: the engine dispatches typed events back into it.
type Network struct {
	Kind Kind
	N    int // endpoints
	Pr   int // switch ports
	Tech network.Technology
	Sw   network.Switch

	eng   *sim.Engine
	links []*link

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

	// Run state.
	opts         Options
	res          *Result
	streams      []*rng.Stream
	gen          workload.Generator
	sources      []workload.Source
	beta         float64 // seconds per byte on every link
	completed    int
	generated    int64
	measureStart float64
	pend         []pendDelivery
	msgs         []nmsg
	free         []int32

	// Dynamic-scenario state (nil/empty in stationary runs), mirroring the
	// system simulator's per-processor machinery: epDown is the endpoint's
	// up/down state, thinking marks a pending generation event, blocked a
	// closed-loop source waiting for its in-flight message, genDue the
	// pending generation's due time and genStale the voided generation
	// events a failure left in the event set. A failed switch (or spine)
	// takes down the links its crossbar serves — its output ports — and
	// new fat-tree routes avoid down spines automatically (pickSpine).
	scn      *scenario.CompiledNet
	epDown   []bool
	thinking []bool
	blocked  []bool
	genDue   []float64
	genStale []int32
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
// resolves switch-level targets against.
func (n *Network) Topo() scenario.NetTopo {
	return scenario.NetTopo{
		Endpoints: n.N,
		Leaves:    n.numLeaves,
		Spines:    n.numSpines,
		Chain:     n.Kind == LinearArray,
	}
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

func (n *Network) addLink(name string, stream *rng.Stream, dist rng.Dist, interSwitch bool) int32 {
	id := int32(len(n.links))
	l := &link{
		name:        name,
		center:      sim.NewCenter(name, n.eng, dist, stream, nvLinkDone, id),
		interSwitch: interSwitch,
	}
	n.links = append(n.links, l)
	return id
}

// BuildFatTree constructs the two-level folded Clos matching the paper's
// construction for d = ⌈log_{Pr/2}(N/2)⌉ ≤ 2: leaves with Pr/2 host ports
// and Pr/2 up ports, spines with Pr down ports, every spine wired to every
// leaf. (All networks of the paper's N=256 platform have d ≤ 2. A single
// switch, d=1, degenerates to one leaf and no spines.)
func BuildFatTree(n, pr int, tech network.Technology, sw network.Switch, seed uint64, dist rng.Dist) (*Network, error) {
	if err := validateBuild(n, pr, tech, sw); err != nil {
		return nil, err
	}
	net := &Network{
		Kind: FatTree, N: n, Pr: pr, Tech: tech, Sw: sw,
		eng: sim.NewEngine(),
	}
	net.eng.SetHandler(net)
	master := rng.NewStream(seed)
	half := pr / 2
	if n <= pr {
		// Single switch: hosts hang off one crossbar.
		net.numLeaves, net.numSpines = 1, 0
		net.hostsPer = n
		net.leafOf = make([]int, n)
		net.hostUp = make([]int32, n)
		net.hostDown = make([]int32, n)
		for e := 0; e < n; e++ {
			net.hostUp[e] = net.addLink(fmt.Sprintf("h%d->sw0", e), master.Split(), dist, false)
			net.hostDown[e] = net.addLink(fmt.Sprintf("sw0->h%d", e), master.Split(), dist, false)
		}
		return net, nil
	}
	numLeaves := ceilDiv(n, half)
	numSpines := ceilDiv(n, pr)
	if numLeaves > pr {
		return nil, fmt.Errorf("netsim: N=%d Pr=%d needs %d leaves > %d spine ports (depth > 2 not supported)",
			n, pr, numLeaves, pr)
	}
	net.numLeaves, net.numSpines = numLeaves, numSpines
	net.hostsPer = half
	net.leafOf = make([]int, n)
	net.hostUp = make([]int32, n)
	net.hostDown = make([]int32, n)
	for e := 0; e < n; e++ {
		leaf := e / half
		net.leafOf[e] = leaf
		net.hostUp[e] = net.addLink(fmt.Sprintf("h%d->leaf%d", e, leaf), master.Split(), dist, false)
		net.hostDown[e] = net.addLink(fmt.Sprintf("leaf%d->h%d", leaf, e), master.Split(), dist, false)
	}
	net.upLinks = make([][]int32, numLeaves)
	net.downLinks = make([][]int32, numSpines)
	for s := 0; s < numSpines; s++ {
		net.downLinks[s] = make([]int32, numLeaves)
	}
	for l := 0; l < numLeaves; l++ {
		net.upLinks[l] = make([]int32, numSpines)
		for s := 0; s < numSpines; s++ {
			net.upLinks[l][s] = net.addLink(fmt.Sprintf("leaf%d->spine%d", l, s), master.Split(), dist, true)
			net.downLinks[s][l] = net.addLink(fmt.Sprintf("spine%d->leaf%d", s, l), master.Split(), dist, true)
		}
	}
	return net, nil
}

// BuildLinearArray constructs the paper's blocking topology: k = ⌈N/Pr⌉
// switches in a chain, hosts distributed Pr per switch, one channel per
// direction between neighbours.
func BuildLinearArray(n, pr int, tech network.Technology, sw network.Switch, seed uint64, dist rng.Dist) (*Network, error) {
	if err := validateBuild(n, pr, tech, sw); err != nil {
		return nil, err
	}
	net := &Network{
		Kind: LinearArray, N: n, Pr: pr, Tech: tech, Sw: sw,
		eng: sim.NewEngine(),
	}
	net.eng.SetHandler(net)
	master := rng.NewStream(seed)
	k := ceilDiv(n, pr)
	net.numLeaves = k
	net.hostsPer = pr
	net.leafOf = make([]int, n)
	net.hostUp = make([]int32, n)
	net.hostDown = make([]int32, n)
	for e := 0; e < n; e++ {
		s := e / pr
		net.leafOf[e] = s
		net.hostUp[e] = net.addLink(fmt.Sprintf("h%d->sw%d", e, s), master.Split(), dist, false)
		net.hostDown[e] = net.addLink(fmt.Sprintf("sw%d->h%d", s, e), master.Split(), dist, false)
	}
	net.chainRight = make([]int32, k-1)
	net.chainLeft = make([]int32, k-1)
	for i := 0; i < k-1; i++ {
		net.chainRight[i] = net.addLink(fmt.Sprintf("sw%d->sw%d", i, i+1), master.Split(), dist, true)
		net.chainLeft[i] = net.addLink(fmt.Sprintf("sw%d->sw%d", i+1, i), master.Split(), dist, true)
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

// appendRoute appends the ordered link ids from src to dst onto buf and
// returns the extended buffer plus the number of switches traversed. For
// the fat-tree the spine is chosen uniformly at random (multipath
// routing) among the spines up at time now (all of them in stationary
// runs). Reusing buf keeps steady-state routing allocation-free.
func (n *Network) appendRoute(buf []int32, st *rng.Stream, src, dst int, now float64) (path []int32, switches int) {
	switch n.Kind {
	case FatTree:
		if n.numSpines == 0 || n.leafOf[src] == n.leafOf[dst] {
			return append(buf, n.hostUp[src], n.hostDown[dst]), 1
		}
		spine := n.pickSpine(st, now)
		return append(buf,
			n.hostUp[src],
			n.upLinks[n.leafOf[src]][spine],
			n.downLinks[spine][n.leafOf[dst]],
			n.hostDown[dst],
		), 3
	default: // LinearArray
		a, b := n.leafOf[src], n.leafOf[dst]
		path = append(buf, n.hostUp[src])
		switches = 1
		for i := a; i < b; i++ {
			path = append(path, n.chainRight[i])
			switches++
		}
		for i := a; i > b; i-- {
			path = append(path, n.chainLeft[i-1])
			switches++
		}
		return append(path, n.hostDown[dst]), switches
	}
}

// route returns src->dst's link ids in a fresh slice; tests and one-off
// inspection use it, the simulation loop uses appendRoute with a pooled
// buffer.
func (n *Network) route(st *rng.Stream, src, dst int) ([]int32, int) {
	return n.appendRoute(nil, st, src, dst, 0)
}

// pickSpine draws the route's spine. In scenario mode the draw is uniform
// over the spines up at route time (the static compiled timeline, so the
// choice is a pure function of the stream and the clock): one Intn draw
// either way, and Intn(numUp) ≡ Intn(numSpines) when every spine is up,
// so a scenario without spine events is draw-identical to a stationary
// run. With no spine up the draw falls back to all spines — the message
// queues at the down spine until its repair.
func (n *Network) pickSpine(st *rng.Stream, now float64) int {
	if n.scn == nil {
		return st.Intn(n.numSpines)
	}
	numUp := 0
	for sp := 0; sp < n.numSpines; sp++ {
		if n.scn.SpineUp(sp, now) {
			numUp++
		}
	}
	if numUp == 0 {
		return st.Intn(n.numSpines)
	}
	k := st.Intn(numUp)
	for sp := 0; sp < n.numSpines; sp++ {
		if n.scn.SpineUp(sp, now) {
			if k == 0 {
				return sp
			}
			k--
		}
	}
	panic("netsim: pickSpine ran out of spines")
}

// Options controls one netsim run.
type Options struct {
	// Lambda is the per-endpoint generation rate (msg/s) while idle;
	// sources block until delivery (the paper's closed-loop assumption).
	Lambda float64
	// MsgBytes is the fixed message length (the default Workload.Size).
	MsgBytes int
	// Workload selects the traffic's arrival process, destination pattern
	// and size distribution — the same workload.Generator the system
	// simulator consumes. The zero value is the paper's workload: Poisson
	// arrivals at Lambda, uniform destinations, fixed MsgBytes messages
	// (bit-identical to the pre-unification private source).
	Workload workload.Generator
	// Warmup and Measured follow the system simulator's semantics.
	Warmup   int
	Measured int
	// Seed drives destination choice and think times.
	Seed uint64
	// MaxSimTime caps the simulated clock (0 = no cap).
	MaxSimTime float64
	// RecordSample keeps the raw measured latencies for the output-analysis
	// engine (MSER-5 warmup deletion, batch-means intervals).
	RecordSample bool
	// Scenario, when non-nil, turns the run dynamic: endpoint and switch
	// failures/repairs at event-loop granularity plus a rate profile over
	// every source. Warmup and Measured are overridden (measurement spans
	// the whole horizon) and the run never reports TimedOut
	// (DESIGN.md §11).
	Scenario *scenario.CompiledNet
	// Stats, when non-nil, receives one telemetry.SimStats record when
	// the run finishes — engine event counts and the heap high-water
	// mark. Purely observational: results are bit-identical with or
	// without it (DESIGN.md §12).
	Stats *telemetry.Collector
}

// Result is a netsim run's output.
type Result struct {
	// Latency is the end-to-end message latency accumulator (seconds).
	Latency stats.Welford
	// Sample holds the raw measured latencies when Options.RecordSample is
	// set, in completion order.
	Sample []float64
	// SwitchHops is the per-message switches-traversed accumulator,
	// comparable to 2d−1 (fat-tree) and (k+1)/3 (linear array).
	SwitchHops stats.Welford
	// Throughput is the measured delivery rate over the window (msg/s).
	Throughput float64
	// MaxLinkUtilization distinguishes edge from fabric pressure.
	MaxHostLinkUtil    float64
	MaxInterSwitchUtil float64
	// TimedOut reports hitting MaxSimTime before Measured messages.
	TimedOut bool
	// SampleTimes holds the absolute completion time of every Sample entry
	// in scenario runs with RecordSample; empty in stationary runs.
	SampleTimes []float64
	// Dropped counts messages discarded by a failure's drop policy in
	// scenario runs (their closed-loop sources are released).
	Dropped int64
}

// allocMsg takes a message slot from the pool, keeping any recycled path
// buffer.
func (n *Network) allocMsg() int32 {
	if ln := len(n.free); ln > 0 {
		mi := n.free[ln-1]
		n.free = n.free[:ln-1]
		return mi
	}
	n.msgs = append(n.msgs, nmsg{})
	return int32(len(n.msgs) - 1)
}

// Handle implements sim.Handler: the per-message hop state machine.
func (n *Network) Handle(kind sim.EventKind, idx int32) {
	switch kind {
	case nvGenerate:
		n.generate(int(idx))
	case nvLinkDone:
		if n.scn != nil && !n.links[idx].center.TakeCompletion() {
			break // voided by a failure
		}
		mi := n.links[idx].center.CompleteService()
		m := &n.msgs[mi]
		m.pos++
		if int(m.pos) == len(m.path) {
			// Fixed latencies paid once per message: NIC latency alpha and
			// the per-switch fabric latency.
			fixed := n.Tech.Latency + float64(m.hops)*n.Sw.Latency
			n.eng.Schedule(fixed, nvDeliver, mi)
			return
		}
		n.links[m.path[m.pos]].center.Submit(m.svc, mi)
	case nvDeliver:
		m := &n.msgs[idx]
		src, born, hops := int(m.src), m.born, int(m.hops)
		n.free = append(n.free, idx)
		n.deliver(src, born, hops)
	case nvScenario:
		n.applyScenario(int(idx))
	default:
		panic(fmt.Sprintf("netsim: unknown event kind %d", kind))
	}
	if len(n.pend) > 0 && n.eng.NextEventAt() != n.eng.Now() {
		n.flushDeliveries()
	}
}

// generate creates one message at endpoint p, routes it, and submits its
// first link. Destination and size come from the shared workload generator;
// with the default uniform pattern and fixed size the stream draws are
// identical to the pre-unification hardcoded source.
func (n *Network) generate(p int) {
	if n.scn != nil {
		if !n.thinking[p] || n.eng.Now() != n.genDue[p] {
			if n.genStale[p] == 0 {
				panic(fmt.Sprintf("netsim: endpoint %d got a generation event with no arrival due and no stale token", p))
			}
			n.genStale[p]--
			return
		}
		n.thinking[p] = false
		n.blocked[p] = true
	}
	n.generated++
	st := n.streams[p]
	dst := n.gen.Pattern.Dest(st, n, p)
	size := n.gen.Size.Sample(st)
	mi := n.allocMsg()
	m := &n.msgs[mi]
	var switches int
	m.path, switches = n.appendRoute(m.path[:0], st, p, dst, n.eng.Now())
	m.born = n.eng.Now()
	m.svc = float64(size) * n.beta
	m.pos = 0
	m.src = int32(p)
	m.dst = int32(dst)
	m.hops = int32(switches)
	n.links[m.path[0]].center.Submit(m.svc, mi)
}

// scheduleGeneration arms endpoint p's next message after the think time
// drawn from its arrival source (exponential under the default Poisson
// process), stretched through the scenario's rate profile when one is
// configured.
func (n *Network) scheduleGeneration(p int) {
	gap := n.sources[p].Next(n.streams[p])
	if n.scn != nil {
		gap = n.scn.Profile.Stretch(n.eng.Now(), gap)
		n.thinking[p] = true
		n.genDue[p] = n.eng.Now() + gap
	}
	n.eng.Schedule(gap, nvGenerate, int32(p))
}

// deliver sinks a completed message and, closed-loop, re-arms its source.
// The measurement commit is deferred until the simulated instant drains:
// messages delivered at exactly the same time have no physical order, so
// the accumulators see them in the canonical (born, source) order rather
// than event-scheduling order. The order is part of the engine's output
// contract: deterministic link service aligns deliveries on an exact-tie
// lattice, and every reported statistic depends on the canonical commit.
func (n *Network) deliver(p int, born float64, hops int) {
	n.pend = append(n.pend, pendDelivery{born: born, src: int32(p), hops: int32(hops)})
	if n.scn != nil {
		n.blocked[p] = false
		if n.epDown[p] {
			return // the endpoint died in flight; it re-arms at repair
		}
	}
	n.scheduleGeneration(p)
}

// flushDeliveries commits the deliveries of the current instant in
// canonical order. Stopping mid-batch discards the rest.
func (n *Network) flushDeliveries() {
	slices.SortFunc(n.pend, func(a, b pendDelivery) int {
		switch {
		case a.born != b.born:
			if a.born < b.born {
				return -1
			}
			return 1
		default:
			return int(a.src - b.src)
		}
	})
	for _, d := range n.pend {
		n.completed++
		if n.completed == n.opts.Warmup {
			n.measureStart = n.eng.Now()
		}
		if n.completed > n.opts.Warmup && n.res.Latency.Count() < int64(n.opts.Measured) {
			lat := n.eng.Now() - d.born
			n.res.Latency.Add(lat)
			if n.opts.RecordSample {
				n.res.Sample = append(n.res.Sample, lat)
				if n.scn != nil {
					n.res.SampleTimes = append(n.res.SampleTimes, n.eng.Now())
				}
			}
			n.res.SwitchHops.Add(float64(d.hops))
			if n.res.Latency.Count() == int64(n.opts.Measured) {
				n.eng.Stop()
				break
			}
		}
	}
	n.pend = n.pend[:0]
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

// applyScenario executes compiled timeline event i. Failures take
// endpoints down first (so a message evicted by a simultaneous switch
// failure cannot re-arm a just-killed source), then switches; repairs
// restore switches first, then endpoints.
func (n *Network) applyScenario(i int) {
	ev := &n.scn.Events[i]
	if ev.Fail {
		for _, p := range ev.Endpoints {
			n.failEndpoint(int(p))
		}
		for _, l := range ev.Leaves {
			for _, li := range n.leafLinks(int(l)) {
				n.failLink(li, ev.Policy)
			}
		}
		for _, sp := range ev.Spines {
			for _, li := range n.downLinks[sp] {
				n.failLink(li, ev.Policy)
			}
		}
		return
	}
	for _, l := range ev.Leaves {
		for _, li := range n.leafLinks(int(l)) {
			n.links[li].center.Repair()
		}
	}
	for _, sp := range ev.Spines {
		for _, li := range n.downLinks[sp] {
			n.links[li].center.Repair()
		}
	}
	for _, p := range ev.Endpoints {
		n.repairEndpoint(int(p))
	}
}

// failLink takes one link out of service under the event's policy: drop
// evicts and frees every queued message, releasing their closed-loop
// sources; requeue leaves them in place to resume at repair.
func (n *Network) failLink(li int32, pol scenario.Policy) {
	victims := n.links[li].center.Fail(pol == scenario.PolicyDrop)
	for _, mi := range victims {
		n.dropMsg(mi)
	}
}

// dropMsg discards an evicted in-flight message and releases its source.
func (n *Network) dropMsg(mi int32) {
	m := &n.msgs[mi]
	src := int(m.src)
	n.res.Dropped++
	n.free = append(n.free, mi)
	n.releaseSource(src)
}

// releaseSource unblocks a closed-loop endpoint whose in-flight message
// was dropped, re-arming it unless the endpoint itself is down.
func (n *Network) releaseSource(p int) {
	n.blocked[p] = false
	if n.epDown[p] {
		return
	}
	n.scheduleGeneration(p)
}

// failEndpoint stops p generating: a pending generation event is voided
// (stale token), an in-flight message completes normally but does not
// re-arm (deliver checks epDown).
func (n *Network) failEndpoint(p int) {
	n.epDown[p] = true
	if n.thinking[p] {
		n.thinking[p] = false
		n.genStale[p]++
	}
}

// repairEndpoint brings p back: it re-arms immediately unless it is still
// waiting on an in-flight message (blocked), which re-arms it at delivery.
func (n *Network) repairEndpoint(p int) {
	n.epDown[p] = false
	if !n.thinking[p] && !n.blocked[p] {
		n.scheduleGeneration(p)
	}
}

// Run executes a closed-loop uniform-traffic experiment on the network.
// The network is single-use.
func (n *Network) Run(opts Options) (*Result, error) {
	if !(opts.Lambda > 0) {
		return nil, fmt.Errorf("netsim: lambda %g must be positive", opts.Lambda)
	}
	if opts.MsgBytes < 1 {
		return nil, fmt.Errorf("netsim: message size %d must be >= 1", opts.MsgBytes)
	}
	if opts.Measured < 1 {
		return nil, fmt.Errorf("netsim: need at least 1 measured message")
	}
	if opts.Warmup < 0 {
		return nil, fmt.Errorf("netsim: negative warmup %d", opts.Warmup)
	}
	if opts.Scenario != nil {
		// Dynamic runs measure over a fixed horizon of absolute time: the
		// transient estimator needs every delivery with its timestamp, so
		// warmup/count cutoffs are overridden (see Options.Scenario).
		opts.MaxSimTime = opts.Scenario.Horizon
		opts.Warmup = 0
		opts.Measured = math.MaxInt32
		n.scn = opts.Scenario
	}
	maxT := opts.MaxSimTime
	if maxT <= 0 {
		maxT = math.Inf(1)
	}
	n.opts = opts
	n.res = &Result{}
	master := rng.NewStream(opts.Seed ^ 0xabcdef12345)
	n.streams = make([]*rng.Stream, n.N)
	rates := make([]float64, n.N)
	for i := range n.streams {
		n.streams[i] = master.Split()
		rates[i] = opts.Lambda
	}
	n.gen = opts.Workload.Normalized(workload.FixedSize{Bytes: opts.MsgBytes})
	n.sources = n.gen.Sources(nil, rates)
	n.beta = n.Tech.Beta()
	// Closed-loop: at most one in-flight message per endpoint.
	n.msgs = make([]nmsg, 0, n.N)
	n.free = make([]int32, 0, n.N)

	if n.scn != nil {
		n.epDown = make([]bool, n.N)
		n.thinking = make([]bool, n.N)
		n.blocked = make([]bool, n.N)
		n.genDue = make([]float64, n.N)
		n.genStale = make([]int32, n.N)
		for _, e := range n.scn.InitialDownEndpoints {
			n.epDown[e] = true
		}
		for _, l := range n.scn.InitialDownLeaves {
			for _, li := range n.leafLinks(int(l)) {
				n.links[li].center.Fail(false)
			}
		}
		for _, sp := range n.scn.InitialDownSpines {
			for _, li := range n.downLinks[sp] {
				n.links[li].center.Fail(false)
			}
		}
		// Timeline events go in before any traffic is armed, so they carry
		// the lowest sequence numbers of their instant and fire first.
		for i := range n.scn.Events {
			n.eng.ScheduleAt(n.scn.Events[i].T, nvScenario, int32(i))
		}
	}
	for p := 0; p < n.N; p++ {
		if n.scn != nil && n.epDown[p] {
			continue
		}
		n.scheduleGeneration(p)
	}
	if n.scn != nil {
		// Pin the clock at the horizon even if the event queue drains, so
		// every run of a timeline reports the same end time.
		n.eng.RunWindow(n.scn.Horizon, true)
	} else {
		n.eng.Run(maxT)
	}
	if n.scn == nil && n.res.Latency.Count() < int64(n.opts.Measured) {
		n.res.TimedOut = true
	}
	window := n.eng.Now() - n.measureStart
	if window > 0 && n.res.Latency.Count() > 0 {
		n.res.Throughput = float64(n.res.Latency.Count()) / window
	}
	for _, l := range n.links {
		l.center.Flush()
		u := l.center.Utilization()
		if l.interSwitch {
			n.res.MaxInterSwitchUtil = math.Max(n.res.MaxInterSwitchUtil, u)
		} else {
			n.res.MaxHostLinkUtil = math.Max(n.res.MaxHostLinkUtil, u)
		}
	}
	if opts.Stats != nil {
		opts.Stats.Add(telemetry.SimStats{
			Events:     n.eng.Executed(),
			MaxPending: int64(n.eng.MaxPending()),
			Generated:  n.generated,
			Dropped:    n.res.Dropped,
		})
	}
	return n.res, nil
}

// ContentionFreeLatency returns the zero-load end-to-end time for a
// message crossing the maximum-distance path, the netsim analogue of the
// paper's eq. 11 / eq. 19 wire time (store-and-forward charges the
// transmission once per hop).
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
