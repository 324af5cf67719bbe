package scenario

import (
	"fmt"
	"math"
	"sort"

	"hmscs/internal/core"
)

// SimEvent is one compiled timeline entry for the simulator: absolute
// time, direction, in-flight policy, and the flat element lists it
// touches. In the cluster model node indices are global processor ids
// and centre indices use the simulator's flat layout (icn1 of cluster
// c = c, ecn1 of cluster c = C+c, icn2 = 2C); over a switch-level
// topology nodes are endpoints and centres are link ids.
type SimEvent struct {
	T       float64
	Fail    bool
	Policy  Policy
	Nodes   []int32
	Centers []int32
}

// Window is what the transient analysis of a compiled timeline reads:
// the horizon and slice width, the latency objective (NaN unset) and
// the first failure time (NaN when none), all in seconds.
type Window struct {
	Horizon, Slice, SLO, FaultAt float64
}

// window resolves the spec's analysis window; a zero slice width takes a
// twentieth of the horizon.
func (s *Spec) window() Window {
	w := Window{Horizon: s.HorizonS, Slice: s.SliceS, SLO: s.SLO(), FaultAt: s.FaultAt()}
	if w.Slice == 0 {
		w.Slice = w.Horizon / 20
	}
	return w
}

// CompiledSim is a scenario resolved against a concrete cluster system
// (CompileSim) or switch-level topology (CompileNet). It is immutable;
// replications share it.
type CompiledSim struct {
	Window
	Profile *Profile
	Events  []SimEvent
	// InitialDownNodes/Centers are absent at t=0 (churn joins).
	InitialDownNodes   []int32
	InitialDownCenters []int32
}

// CompileSim resolves the spec against a cluster configuration: symbolic
// targets become node/centre lists, cluster:largest picks the cluster
// with the most nodes (lowest index on ties), and the fail/repair
// interval structure is re-checked per resolved element so aliases (a
// cluster event and an event on one of its centres) cannot overlap.
func CompileSim(s *Spec, cfg *core.Config) (*CompiledSim, error) {
	if s == nil {
		return nil, nil
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := &CompiledSim{Window: s.window()}
	var err error
	if c.Profile, err = s.Profile.Compile(); err != nil {
		return nil, err
	}
	C := cfg.NumClusters()
	total := cfg.TotalNodes()
	prefix := make([]int, C+1)
	for i, cl := range cfg.Clusters {
		prefix[i+1] = prefix[i] + cl.Nodes
	}
	largest := 0
	for i := range cfg.Clusters {
		if cfg.Clusters[i].Nodes > cfg.Clusters[largest].Nodes {
			largest = i
		}
	}
	resolve := func(raw string) (nodes, centers []int32, kind targetKind, err error) {
		tg, err := parseTarget(raw)
		if err != nil {
			return nil, nil, 0, err
		}
		switch tg.kind {
		case tNode:
			if tg.idx >= total {
				return nil, nil, 0, fmt.Errorf("target %s: the system has %d processors", tg, total)
			}
			return []int32{int32(tg.idx)}, nil, tg.kind, nil
		case tCluster, tClusterLargest:
			cl := tg.idx
			if tg.kind == tClusterLargest {
				cl = largest
			} else if cl >= C {
				return nil, nil, 0, fmt.Errorf("target %s: the system has %d clusters", tg, C)
			}
			for n := prefix[cl]; n < prefix[cl+1]; n++ {
				nodes = append(nodes, int32(n))
			}
			return nodes, []int32{int32(cl), int32(C + cl)}, tg.kind, nil
		case tICN1, tECN1:
			if tg.idx >= C {
				return nil, nil, 0, fmt.Errorf("target %s: the system has %d clusters", tg, C)
			}
			id := int32(tg.idx)
			if tg.kind == tECN1 {
				id += int32(C)
			}
			return nil, []int32{id}, tg.kind, nil
		case tICN2:
			return nil, []int32{int32(2 * C)}, tg.kind, nil
		}
		return nil, nil, 0, fmt.Errorf("target %s is a switch-level (netsim) target; cluster scenarios accept node:<i>, cluster:<i|largest>, icn1:<c>, ecn1:<c> and icn2", tg)
	}
	for i, raw := range s.InitialDown {
		nodes, centers, _, err := resolve(raw)
		if err != nil {
			return nil, fmt.Errorf("scenario: initial_down[%d]: %v", i, err)
		}
		c.InitialDownNodes = append(c.InitialDownNodes, nodes...)
		c.InitialDownCenters = append(c.InitialDownCenters, centers...)
	}
	// Spec events are normalized (time-sorted); compile preserves order.
	ordered := append([]Event(nil), s.Events...)
	sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].TS < ordered[b].TS })
	for i, e := range ordered {
		nodes, centers, kind, err := resolve(e.Target)
		if err != nil {
			return nil, fmt.Errorf("scenario: events[%d]: %v", i, err)
		}
		pol, _ := parsePolicy(e.Policy)
		if e.Action == ActionFail {
			if kind == tNode && pol != PolicyNone {
				return nil, fmt.Errorf("scenario: events[%d]: node failures take no policy (a stopped processor just stops generating), got %q", i, e.Policy)
			}
			if kind != tNode && pol == PolicyNone {
				pol = PolicyDrop
			}
		}
		c.Events = append(c.Events, SimEvent{
			T: e.TS, Fail: e.Action == ActionFail, Policy: pol,
			Nodes: nodes, Centers: centers,
		})
	}
	flat := make([]elemEvent, len(c.Events))
	for i, ev := range c.Events {
		flat[i] = elemEvent{t: ev.T, fail: ev.Fail, fams: [2][]int32{ev.Nodes, ev.Centers}}
	}
	centerName := func(id int32) string {
		switch {
		case int(id) < C:
			return fmt.Sprintf("icn1:%d", id)
		case int(id) < 2*C:
			return fmt.Sprintf("ecn1:%d", int(id)-C)
		}
		return "icn2"
	}
	if err := checkElementIntervals(flat,
		[2][]int32{c.InitialDownNodes, c.InitialDownCenters},
		[2]func(int32) string{
			func(n int32) string { return fmt.Sprintf("processor %d", n) },
			centerName,
		}); err != nil {
		return nil, err
	}
	return c, nil
}

// NetTopo describes the switch-level topology a scenario compiles
// against: endpoint, leaf-switch and spine-switch counts (Spines is 0
// for the linear array, whose switches form a chain), and the links a
// failure of each takes down.
type NetTopo struct {
	Endpoints int
	Leaves    int
	Spines    int
	Chain     bool
	// LeafLinks[l] and SpineLinks[s] are the link ids (the engine's
	// centres) leaf l and spine s serve.
	LeafLinks  [][]int32
	SpineLinks [][]int32
}

// CompileNet resolves the spec against a switch-level topology. Targets
// are node:<i> (endpoint), switch:<i> (leaf, or chain switch in the
// linear array) and spine:<i> (fat-tree only). The result is lowered onto
// the engine's terms: endpoints are its nodes, and a switch event names
// the links it serves, leaves' before spines'. Reroute has no meaning
// here — route diversity is handled automatically: in scenario mode new
// fat-tree routes draw uniformly over the spines that are up at route
// time, which is draw-identical to the stationary simulator when no
// spine events exist.
func CompileNet(s *Spec, topo NetTopo) (*CompiledSim, error) {
	if s == nil {
		return nil, nil
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := &CompiledSim{Window: s.window()}
	var err error
	if c.Profile, err = s.Profile.Compile(); err != nil {
		return nil, err
	}
	resolve := func(raw string) (eps, leaves, spines []int32, err error) {
		tg, err := parseTarget(raw)
		if err != nil {
			return nil, nil, nil, err
		}
		switch tg.kind {
		case tNode:
			if tg.idx >= topo.Endpoints {
				return nil, nil, nil, fmt.Errorf("target %s: the network has %d endpoints", tg, topo.Endpoints)
			}
			return []int32{int32(tg.idx)}, nil, nil, nil
		case tSwitch:
			if tg.idx >= topo.Leaves {
				return nil, nil, nil, fmt.Errorf("target %s: the network has %d switches", tg, topo.Leaves)
			}
			return nil, []int32{int32(tg.idx)}, nil, nil
		case tSpine:
			if topo.Chain {
				return nil, nil, nil, fmt.Errorf("target %s: the linear array has no spine stage (use switch:<i>)", tg)
			}
			if tg.idx >= topo.Spines {
				return nil, nil, nil, fmt.Errorf("target %s: the fat tree has %d spines", tg, topo.Spines)
			}
			return nil, nil, []int32{int32(tg.idx)}, nil
		}
		return nil, nil, nil, fmt.Errorf("target %s is a cluster-model target; switch-level scenarios accept node:<i>, switch:<i> and spine:<i>", tg)
	}
	links := func(leaves, spines []int32) (out []int32) {
		for _, l := range leaves {
			out = append(out, topo.LeafLinks[l]...)
		}
		for _, sp := range spines {
			out = append(out, topo.SpineLinks[sp]...)
		}
		return out
	}
	var downLeaves, downSpines []int32
	for i, raw := range s.InitialDown {
		eps, leaves, spines, err := resolve(raw)
		if err != nil {
			return nil, fmt.Errorf("scenario: initial_down[%d]: %v", i, err)
		}
		c.InitialDownNodes = append(c.InitialDownNodes, eps...)
		downLeaves = append(downLeaves, leaves...)
		downSpines = append(downSpines, spines...)
	}
	c.InitialDownCenters = links(downLeaves, downSpines)
	ordered := append([]Event(nil), s.Events...)
	sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].TS < ordered[b].TS })
	flatEp := make([]elemEvent, len(ordered))
	flatSw := make([]elemEvent, len(ordered))
	for i, e := range ordered {
		eps, leaves, spines, err := resolve(e.Target)
		if err != nil {
			return nil, fmt.Errorf("scenario: events[%d]: %v", i, err)
		}
		pol, _ := parsePolicy(e.Policy)
		if pol == PolicyReroute {
			return nil, fmt.Errorf("scenario: events[%d]: switch-level scenarios reject policy reroute — surviving-spine selection is automatic; use drop or requeue", i)
		}
		fail := e.Action == ActionFail
		if fail && pol == PolicyNone {
			pol = PolicyDrop
		}
		c.Events = append(c.Events, SimEvent{T: e.TS, Fail: fail, Policy: pol, Nodes: eps, Centers: links(leaves, spines)})
		flatEp[i] = elemEvent{t: e.TS, fail: fail, fams: [2][]int32{eps, nil}}
		flatSw[i] = elemEvent{t: e.TS, fail: fail, fams: [2][]int32{leaves, spines}}
	}
	epName := func(n int32) string { return fmt.Sprintf("endpoint %d", n) }
	if err := checkElementIntervals(flatEp,
		[2][]int32{c.InitialDownNodes, nil},
		[2]func(int32) string{epName, epName}); err != nil {
		return nil, err
	}
	if err := checkElementIntervals(flatSw,
		[2][]int32{downLeaves, downSpines},
		[2]func(int32) string{
			func(n int32) string { return fmt.Sprintf("switch %d", n) },
			func(n int32) string { return fmt.Sprintf("spine %d", n) },
		}); err != nil {
		return nil, err
	}
	return c, nil
}

// elemEvent is the flattened form both compilers feed the per-element
// interval machine: a time, a direction, and up to two element families
// (nodes/centres for sim, endpoints-or-leaves/spines for netsim).
type elemEvent struct {
	t    float64
	fail bool
	fams [2][]int32
}

// checkElementIntervals re-runs the fail/repair interval machine per
// resolved element, catching overlaps that only aliased targets produce
// (e.g. a cluster event and an event on one of its centres).
func checkElementIntervals(events []elemEvent, down0 [2][]int32, name [2]func(int32) string) error {
	type key struct {
		fam int32
		id  int32
	}
	down := make(map[key]float64) // element -> fail time (NaN for initial_down)
	for fam, ids := range down0 {
		for _, id := range ids {
			down[key{int32(fam), id}] = math.NaN()
		}
	}
	for i, e := range events {
		for fam, ids := range e.fams {
			for _, id := range ids {
				k := key{int32(fam), id}
				prev, isDown := down[k]
				if e.fail {
					if isDown {
						if math.IsNaN(prev) {
							return fmt.Errorf("scenario: events[%d]: fail of %s at t=%gs but it is already down from initial_down", i, name[fam](id), e.t)
						}
						return fmt.Errorf("scenario: events[%d]: fail of %s at t=%gs overlaps the fail at t=%gs (repair it first)", i, name[fam](id), e.t, prev)
					}
					down[k] = e.t
				} else {
					if !isDown {
						return fmt.Errorf("scenario: events[%d]: repair of %s at t=%gs but it is not failed then", i, name[fam](id), e.t)
					}
					delete(down, k)
				}
			}
		}
	}
	return nil
}
