// Package plan is the SLO-driven capacity planner: it inverts the paper's
// question. Instead of "what latency does this configuration deliver?" it
// answers "what do I deploy to serve this traffic within this latency
// budget, and what does it cost?" — the design-space use the paper pitches
// its analytical model for, turned into a subsystem.
//
// The methodology is surrogate-screen-then-simulate (DESIGN.md §7):
//
//  1. a declarative design Space (cluster counts, per-cluster node counts
//     including heterogeneous splits, per-role technologies, architecture,
//     load headroom) is enumerated in a fixed deterministic order;
//  2. every candidate is screened in one worker-pool pass: analysed
//     through the analytic fixed point (microseconds per candidate),
//     priced by a CostModel and scored against an SLO;
//  3. the feasible set is reduced to the Pareto frontier on
//     (cost, predicted latency);
//  4. the cheapest frontier candidates are verified with precision-mode
//     simulation (sim.RunBatchCtx), reporting the model-vs-sim gap
//     per candidate.
//
// Everything is deterministic: enumeration order is fixed, screening
// writes results by candidate index, frontier ties break on index, and
// verification inherits sim.ReplicationSeed — so planner output is
// bit-identical at every parallelism level.
package plan

import (
	"fmt"
	"slices"
	"strings"

	"hmscs/internal/core"
	"hmscs/internal/network"
)

// Space is a declarative design space over HMSCS configurations. Every
// combination of one node layout (Clusters × NodesPerCluster, plus each
// explicit heterogeneous Splits entry), one technology per role, one
// architecture, and one headroom factor is a candidate.
type Space struct {
	// Clusters lists candidate cluster counts C for homogeneous layouts.
	Clusters []int
	// NodesPerCluster lists candidate per-cluster processor counts N0.
	NodesPerCluster []int
	// Splits lists explicit heterogeneous layouts: each entry is a
	// per-cluster node-count vector (the paper's Cluster-of-Clusters
	// future work), enumerated alongside the homogeneous grid.
	Splits [][]int
	// ICN1, ECN1 and ICN2 list the candidate technologies per role.
	ICN1, ECN1, ICN2 []network.Technology
	// Archs lists the candidate interconnect architectures.
	Archs []network.Architecture
	// Lambda is the per-processor offered load the deployment must carry
	// (msg/s) — the traffic requirement, not a swept axis.
	Lambda float64
	// Headroom lists load multipliers: a candidate with headroom h is
	// screened at Lambda·h, so the frontier can demand slack above the
	// nominal requirement. An empty list means {1}.
	Headroom []float64
	// MessageBytes is the fixed message length M.
	MessageBytes int
	// Switch holds the switch-fabric parameters shared by all candidates.
	Switch network.Switch
	// MaxCandidates, when positive, caps enumeration by deterministic
	// even-stride subsampling of the full grid.
	MaxCandidates int
}

// DefaultSpace is the documented planning space: 22 node layouts (a 5×4
// homogeneous grid plus two heterogeneous splits) × 3 ICN1 × 2 ECN1 ×
// 2 ICN2 technologies × both architectures × 3 headroom factors = 1584
// candidates, at the paper's λ=250 msg/s and M=1 KB.
func DefaultSpace() *Space {
	return &Space{
		Clusters:        []int{2, 4, 8, 16, 32},
		NodesPerCluster: []int{4, 8, 16, 32},
		Splits:          [][]int{{32, 16, 8, 8}, {64, 32, 32}},
		ICN1:            []network.Technology{network.GigabitEthernet, network.Myrinet, network.Infiniband},
		ECN1:            []network.Technology{network.FastEthernet, network.GigabitEthernet},
		ICN2:            []network.Technology{network.FastEthernet, network.GigabitEthernet},
		Archs:           []network.Architecture{network.NonBlocking, network.Blocking},
		Lambda:          core.PaperLambda,
		Headroom:        []float64{1, 1.25, 1.5},
		MessageBytes:    1024,
		Switch:          network.PaperSwitch,
	}
}

// Clone returns a deep copy of the space; a nil space clones to nil.
func (s *Space) Clone() *Space {
	if s == nil {
		return nil
	}
	d := *s
	d.Clusters = slices.Clone(s.Clusters)
	d.NodesPerCluster = slices.Clone(s.NodesPerCluster)
	d.Splits = slices.Clone(s.Splits)
	for i, split := range d.Splits {
		d.Splits[i] = slices.Clone(split)
	}
	d.ICN1 = slices.Clone(s.ICN1)
	d.ECN1 = slices.Clone(s.ECN1)
	d.ICN2 = slices.Clone(s.ICN2)
	d.Archs = slices.Clone(s.Archs)
	d.Headroom = slices.Clone(s.Headroom)
	return &d
}

// Validate checks the space for structural errors.
func (s *Space) Validate() error {
	if len(s.Clusters) == 0 && len(s.Splits) == 0 {
		return fmt.Errorf("plan: space needs cluster counts or explicit splits")
	}
	if len(s.Clusters) > 0 && len(s.NodesPerCluster) == 0 {
		return fmt.Errorf("plan: cluster counts need per-cluster node counts")
	}
	for _, c := range s.Clusters {
		if c < 1 {
			return fmt.Errorf("plan: cluster count %d must be >= 1", c)
		}
	}
	for _, n := range s.NodesPerCluster {
		if n < 1 {
			return fmt.Errorf("plan: nodes per cluster %d must be >= 1", n)
		}
	}
	for i, split := range s.Splits {
		if len(split) == 0 {
			return fmt.Errorf("plan: split %d is empty", i)
		}
		for _, n := range split {
			if n < 1 {
				return fmt.Errorf("plan: split %d has node count %d", i, n)
			}
		}
	}
	if len(s.ICN1) == 0 || len(s.ECN1) == 0 || len(s.ICN2) == 0 {
		return fmt.Errorf("plan: space needs at least one technology per role")
	}
	for _, ts := range [][]network.Technology{s.ICN1, s.ECN1, s.ICN2} {
		for _, t := range ts {
			if err := t.Validate(); err != nil {
				return fmt.Errorf("plan: %w", err)
			}
		}
	}
	if len(s.Archs) == 0 {
		return fmt.Errorf("plan: space needs at least one architecture")
	}
	if !(s.Lambda > 0) {
		return fmt.Errorf("plan: lambda %g must be positive", s.Lambda)
	}
	for _, h := range s.Headroom {
		if !(h > 0) {
			return fmt.Errorf("plan: headroom %g must be positive", h)
		}
	}
	if s.MessageBytes < 1 {
		return fmt.Errorf("plan: message size %d must be at least 1 byte", s.MessageBytes)
	}
	if err := s.Switch.Validate(); err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	if s.MaxCandidates < 0 {
		return fmt.Errorf("plan: max candidates %d must be non-negative", s.MaxCandidates)
	}
	return nil
}

// Candidate is one enumerated point of the space: a buildable
// configuration plus the axes that produced it.
type Candidate struct {
	// Index is the candidate's position in enumeration order — the
	// deterministic identity used for tie-breaks and reporting.
	Index int
	// Cfg is the configuration, with Lambda already scaled by Headroom.
	// Candidates share cluster storage: Cfg.Clusters is a capped window
	// on a run other candidates read too, so treat Cfg as read-only.
	// Appending to Clusters copies them; writing through an element
	// changes every candidate that shares the run.
	Cfg *core.Config
	// Headroom is the load multiplier this candidate was built at.
	Headroom float64
}

// Label summarises the candidate for tables: node layout, technologies,
// architecture and headroom, e.g. "C=4 N=8 GE/FE/FE nb h=1.25".
func (c Candidate) Label() string {
	cfg := c.Cfg
	var nodes string
	if cfg.Homogeneous() {
		nodes = fmt.Sprint(cfg.Clusters[0].Nodes)
	} else {
		parts := make([]string, len(cfg.Clusters))
		for i, cl := range cfg.Clusters {
			parts[i] = fmt.Sprint(cl.Nodes)
		}
		nodes = strings.Join(parts, "+")
	}
	arch := "nb"
	if cfg.Arch == network.Blocking {
		arch = "bl"
	}
	return fmt.Sprintf("C=%d N=%s %s/%s/%s %s h=%g",
		cfg.NumClusters(), nodes,
		shortTech(cfg.Clusters[0].ICN1), shortTech(cfg.Clusters[0].ECN1),
		shortTech(cfg.ICN2), arch, c.Headroom)
}

// shortTech abbreviates the built-in technology names for table cells.
func shortTech(t network.Technology) string {
	switch t.Name {
	case network.GigabitEthernet.Name:
		return "GE"
	case network.FastEthernet.Name:
		return "FE"
	case network.Myrinet.Name:
		return "Myri"
	case network.Infiniband.Name:
		return "IB"
	}
	return t.Name
}

// Enumerate expands the space into candidates in a fixed deterministic
// order: node layouts (homogeneous grid row-major, then explicit splits) ×
// ICN1 × ECN1 × ICN2 × architecture × headroom, innermost last.
// Combinations whose configuration fails core validation (e.g. a single
// 1-node cluster with no possible traffic) are skipped deterministically.
// With MaxCandidates set, the kept grid is subsampled at an even stride.
//
// Candidates share cluster storage (see Candidate.Cfg): each distinct
// cluster run is built once, and candidates that differ only in ICN2,
// architecture or cluster count take windows on the same run.
func Enumerate(s *Space) ([]Candidate, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	headroom := s.Headroom
	if len(headroom) == 0 {
		headroom = []float64{1}
	}

	// The cluster runs live in one slab of blocks, one block per
	// homogeneous node count and then one per split. A block holds one
	// run per (ICN1, ECN1, headroom), in that order; a homogeneous run is
	// as long as the largest cluster count, so every count shares it.
	runsPerBlock := len(s.ICN1) * len(s.ECN1) * len(headroom)
	maxC := 0
	if len(s.Clusters) > 0 {
		maxC = slices.Max(s.Clusters)
	}
	nClusters := len(s.NodesPerCluster) * maxC
	for _, split := range s.Splits {
		nClusters += len(split)
	}
	runs := make([]core.Cluster, 0, nClusters*runsPerBlock)
	for _, n := range s.NodesPerCluster {
		runs = s.appendRuns(runs, headroom, maxC, n, nil)
	}
	layouts := make([]layout, 0, len(s.Clusters)*len(s.NodesPerCluster)+len(s.Splits))
	for _, c := range s.Clusters {
		for ni := range s.NodesPerCluster {
			layouts = append(layouts, layout{block: ni * maxC * runsPerBlock, stride: maxC, size: c})
		}
	}
	for _, split := range s.Splits {
		layouts = append(layouts, layout{block: len(runs), stride: len(split), size: len(split)})
		runs = s.appendRuns(runs, headroom, len(split), 0, split)
	}

	// Every configuration comes from one slab sized for the whole grid; a
	// skipped combination's slot is reused.
	combos := runsPerBlock * len(s.ICN2) * len(s.Archs)
	cfgs := make([]core.Config, 0, len(layouts)*combos)
	out := make([]Candidate, 0, len(layouts)*combos)
	for _, l := range layouts {
		for i1 := range s.ICN1 {
			for e1 := range s.ECN1 {
				for _, icn2 := range s.ICN2 {
					for _, arch := range s.Archs {
						for hi, h := range headroom {
							first := l.block + ((i1*len(s.ECN1)+e1)*len(headroom)+hi)*l.stride
							end := first + l.size
							cfgs = append(cfgs, core.Config{
								// Capped, so appending to one candidate's
								// clusters copies them rather than
								// writing into the shared run.
								Clusters:     runs[first:end:end],
								ICN2:         icn2,
								Arch:         arch,
								Switch:       s.Switch,
								MessageBytes: s.MessageBytes,
							})
							cfg := &cfgs[len(cfgs)-1]
							if cfg.Validate() != nil {
								cfgs = cfgs[:len(cfgs)-1]
								continue
							}
							out = append(out, Candidate{Index: len(out), Cfg: cfg, Headroom: h})
						}
					}
				}
			}
		}
	}
	if s.MaxCandidates > 0 && len(out) > s.MaxCandidates {
		sampled := make([]Candidate, 0, s.MaxCandidates)
		// Even-stride subsample: candidate k of the sample is the grid
		// point at floor(k·len/max), a pure function of the two counts.
		// Each sampled configuration is copied out of the slab, so the
		// unsampled grid's configurations are not kept alive; the copy's
		// clusters stay a window on the shared runs.
		for k := 0; k < s.MaxCandidates; k++ {
			c := out[k*len(out)/s.MaxCandidates]
			cfg := *c.Cfg
			c.Cfg, c.Index = &cfg, len(sampled)
			sampled = append(sampled, c)
		}
		out = sampled
	}
	return out, nil
}

// layout is one node layout of the space, located in Enumerate's run
// slab: its runs start at block, one every stride clusters, and the
// layout's clusters are the first size of each.
type layout struct {
	block, stride, size int
}

// appendRuns appends one block of runs to slab: for each (ICN1, ECN1,
// headroom), in that order, width clusters whose node counts are split's
// or, when split is nil, n in every cluster.
func (s *Space) appendRuns(slab []core.Cluster, headroom []float64, width, n int, split []int) []core.Cluster {
	for _, icn1 := range s.ICN1 {
		for _, ecn1 := range s.ECN1 {
			for _, h := range headroom {
				for i := 0; i < width; i++ {
					nodes := n
					if split != nil {
						nodes = split[i]
					}
					slab = append(slab, core.Cluster{
						Nodes: nodes, Lambda: s.Lambda * h,
						ICN1: icn1, ECN1: ecn1,
					})
				}
			}
		}
	}
	return slab
}
