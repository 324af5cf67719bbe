package run

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"hmscs/internal/core"
	"hmscs/internal/netsim"
	"hmscs/internal/network"
	"hmscs/internal/output"
	"hmscs/internal/rng"
	"hmscs/internal/sim"
	"hmscs/internal/workload"
)

// ParseArrival parses an arrival-process spec:
//
//	poisson                          the paper's assumption 2
//	periodic | det                   deterministic gaps (SCV 0)
//	mmpp[:<frac>[:<dwell>]]          MMPP-2 at burst ratio burstRatio,
//	                                 burst fraction frac (default 0.1),
//	                                 dwell in mean interarrivals
//	pareto[:<alpha>]                 heavy-tailed renewal (default α 1.5)
//	weibull[:<shape>]                Weibull renewal (default k 0.5)
//	trace                            replay the trace's timestamps
func ParseArrival(spec string, burstRatio float64, trace []float64) (workload.Arrival, error) {
	name, args, _ := strings.Cut(spec, ":")
	parseArg := func(s string, def float64) (float64, error) {
		if s == "" {
			return def, nil
		}
		if strings.EqualFold(s, "inf") {
			return math.Inf(1), nil
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("run: bad arrival parameter %q in %q", s, spec)
		}
		return v, nil
	}
	switch name {
	case "", "poisson":
		return workload.Poisson{}, nil
	case "periodic", "det", "deterministic":
		return workload.Periodic{}, nil
	case "mmpp":
		fracSpec, dwellSpec, _ := strings.Cut(args, ":")
		frac, err := parseArg(fracSpec, 0.1)
		if err != nil {
			return nil, err
		}
		dwell, err := parseArg(dwellSpec, workload.DefaultMMPPDwell)
		if err != nil {
			return nil, err
		}
		m, err := workload.NewMMPP(burstRatio, frac)
		if err != nil {
			return nil, err
		}
		m.Dwell = dwell
		return m, nil
	case "pareto":
		alpha, err := parseArg(args, 1.5)
		if err != nil {
			return nil, err
		}
		return workload.NewPareto(alpha)
	case "weibull":
		shape, err := parseArg(args, 0.5)
		if err != nil {
			return nil, err
		}
		return workload.NewWeibull(shape)
	case "trace":
		if len(trace) == 0 {
			return nil, fmt.Errorf("run: arrival \"trace\" requires trace timestamps (workload.trace, or the CLI's -trace file)")
		}
		return workload.NewTrace(trace)
	}
	return nil, fmt.Errorf("run: unknown arrival process %q", spec)
}

// ParsePattern parses a traffic-pattern spec: "uniform", "local:<p>" or
// "hotspot:<p>" (hot node 0).
func ParsePattern(spec string) (workload.Pattern, error) {
	switch {
	case spec == "uniform" || spec == "":
		return workload.Uniform{}, nil
	case strings.HasPrefix(spec, "local:"):
		p, err := strconv.ParseFloat(strings.TrimPrefix(spec, "local:"), 64)
		if err != nil || p < 0 || p > 1 {
			return nil, fmt.Errorf("run: bad locality in %q", spec)
		}
		return workload.LocalBias{Locality: p}, nil
	case strings.HasPrefix(spec, "hotspot:"):
		p, err := strconv.ParseFloat(strings.TrimPrefix(spec, "hotspot:"), 64)
		if err != nil || p < 0 || p > 1 {
			return nil, fmt.Errorf("run: bad hotspot fraction in %q", spec)
		}
		return workload.Hotspot{Node: 0, Fraction: p}, nil
	}
	return nil, fmt.Errorf("run: unknown pattern %q", spec)
}

// ParseService parses a service-distribution name: exp, det, erlang4, h2.
func ParseService(name string) (rng.Dist, error) {
	switch name {
	case "exp", "":
		return rng.Exponential{MeanValue: 1}, nil
	case "det":
		return rng.Deterministic{Value: 1}, nil
	case "erlang4":
		return rng.Erlang{K: 4, MeanValue: 1}, nil
	case "h2":
		return rng.NewHyperExp(1, 4)
	}
	return nil, fmt.Errorf("run: unknown service distribution %q", name)
}

// ParseIntList parses a comma-separated integer list like "1,2,4,8".
func ParseIntList(spec string) ([]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("run: empty list")
	}
	parts := strings.Split(spec, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("run: bad integer %q in list", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseFloatList parses a comma-separated float list like "0.25,2.5,25".
func ParseFloatList(spec string) ([]float64, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("run: empty list")
	}
	parts := strings.Split(spec, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("run: bad float %q in list", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// splitList splits a comma-separated list, trimming each element.
func splitList(spec string) []string {
	parts := strings.Split(spec, ",")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
	}
	return parts
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// Build converts the system section into a validated configuration.
func (s *SystemSpec) Build() (*core.Config, error) {
	if s.Config != nil {
		if err := s.Config.Validate(); err != nil {
			return nil, err
		}
		return s.Config, nil
	}
	arch, err := network.ParseArchitecture(s.Arch)
	if err != nil {
		return nil, err
	}
	n0 := s.Nodes
	if n0 == 0 {
		if s.Clusters <= 0 || s.Total%s.Clusters != 0 {
			return nil, fmt.Errorf("run: %d clusters must divide %d total processors (or set nodes)", s.Clusters, s.Total)
		}
		n0 = s.Total / s.Clusters
	}
	var icn1, ecn network.Technology
	switch {
	case s.ICN1 != "" || s.ECN != "":
		if s.ICN1 == "" || s.ECN == "" {
			return nil, fmt.Errorf("run: icn1 and ecn must be set together")
		}
		if icn1, err = network.TechnologyByName(s.ICN1); err != nil {
			return nil, err
		}
		if ecn, err = network.TechnologyByName(s.ECN); err != nil {
			return nil, err
		}
	default:
		if icn1, ecn, err = core.Scenario(s.Case).Technologies(); err != nil {
			return nil, err
		}
	}
	// µs are divided by 1e6, as a configuration file's are
	// (core.TechFromJSON): multiplying by 1e-6 is an ulp off.
	sw := network.Switch{Ports: s.Ports, Latency: s.SwLatUS / 1e6}
	return core.NewSuperCluster(s.Clusters, n0, s.Lambda, icn1, ecn, arch, sw, s.MsgBytes)
}

// BuildArrival converts the workload section's arrival fields.
func (w *WorkloadSpec) BuildArrival() (workload.Arrival, error) {
	return ParseArrival(w.Arrival, w.BurstRatio, w.Trace)
}

// BuildPrecision converts the precision section into a stopping target,
// or nil when RelWidth is 0 (fixed-replication mode).
func (p *PrecisionSpec) Build() (*output.Precision, error) {
	if p.RelWidth == 0 {
		return nil, nil
	}
	t := output.Precision{RelWidth: p.RelWidth, Confidence: p.Confidence, MaxReps: p.MaxReps}.Normalized()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// simOptions assembles the system simulator's options from the
// workload and run sections.
func (e *Experiment) simOptions() (sim.Options, error) {
	opts := sim.DefaultOptions()
	opts.Seed = e.Run.Seed
	opts.MeasuredMessages = e.Run.Messages
	opts.WarmupMessages = e.Run.Warmup
	opts.OpenLoop = e.Run.Open
	dist, err := ParseService(e.Workload.Service)
	if err != nil {
		return opts, err
	}
	opts.ServiceDist = dist
	pattern, err := ParsePattern(e.Workload.Pattern)
	if err != nil {
		return opts, err
	}
	opts.Pattern = pattern
	arrival, err := e.Workload.BuildArrival()
	if err != nil {
		return opts, err
	}
	opts.Arrival = arrival
	return opts, nil
}

// NetExperiment is the resolved form of a netsim experiment: the
// network and traffic parameters the runner and renderer read, so they
// never re-parse what buildNet already validated.
type NetExperiment struct {
	// Tech is the resolved link technology.
	Tech network.Technology
	// Switch holds the switch-fabric parameters (ports, latency).
	Switch network.Switch
	// Topo, N and Ports are the resolved topology parameters, Lambda (per
	// endpoint) and MsgBytes the traffic's: after a Config resolution
	// they reflect the selected network, not the spec's flag-level
	// defaults.
	Topo     string
	N        int
	Ports    int
	Lambda   float64
	MsgBytes int
	// Arrival is the traffic's arrival process.
	Arrival workload.Arrival
}

// network builds the switch graph; every replication runs on one build.
func (x *NetExperiment) network() (*netsim.Network, error) {
	switch x.Topo {
	case "fat-tree":
		return netsim.BuildFatTree(x.N, x.Ports, x.Tech, x.Switch)
	case "linear-array":
		return netsim.BuildLinearArray(x.N, x.Ports, x.Tech, x.Switch)
	}
	return nil, fmt.Errorf("run: unknown topology %q", x.Topo)
}

// resolveConfig maps one communication network of a core.Config onto the
// switch-level simulator's parameters: the selected centre's technology
// and endpoint count, the topology implied by the architecture, and a
// per-endpoint rate derived from the configuration's own Jackson arrival
// rates (core.ArrivalRates), so the network is driven at exactly the
// offered load the analytic model and system simulator give it. The
// resolved values overwrite the spec's fields, which keeps every
// downstream consumer (headers included) reading one source.
func (n *NetSpec) resolveConfig() (*network.Technology, error) {
	cfg := n.Config
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rates := cfg.ArrivalRates(1)
	var tech network.Technology
	var endpoints int
	var rate float64
	switch n.Net {
	case "icn1", "ecn1":
		if n.Cluster < 0 || n.Cluster >= cfg.NumClusters() {
			return nil, fmt.Errorf("run: cluster %d outside [0,%d)", n.Cluster, cfg.NumClusters())
		}
		cl := cfg.Clusters[n.Cluster]
		if n.Net == "icn1" {
			tech, endpoints, rate = cl.ICN1, cl.Nodes, rates.ICN1[n.Cluster]
		} else {
			tech, endpoints, rate = cl.ECN1, cl.Nodes+1, rates.ECN1[n.Cluster]
		}
	case "icn2":
		tech, endpoints, rate = cfg.ICN2, cfg.NumClusters(), rates.ICN2
	default:
		return nil, fmt.Errorf("run: unknown network %q (want icn1, ecn1 or icn2)", n.Net)
	}
	if !(rate > 0) {
		return nil, fmt.Errorf("run: %s of the configuration carries no traffic (%g msg/s)", n.Net, rate)
	}
	if endpoints < 2 {
		return nil, fmt.Errorf("run: %s has %d endpoint(s); switch-level simulation needs at least 2", n.Net, endpoints)
	}
	n.Topo = "fat-tree"
	if cfg.Arch == network.Blocking {
		n.Topo = "linear-array"
	}
	n.N = endpoints
	n.Ports = cfg.Switch.Ports
	n.SwLatUS = cfg.Switch.Latency * 1e6
	n.Tech = tech.Name
	n.Lambda = rate / float64(endpoints)
	n.MsgBytes = cfg.MessageBytes
	return &tech, nil
}

// buildNet converts the netsim sections into the resolved experiment and
// the base options of its replications: the cluster model's
// (simOptions), always closed-loop, since the switch-level engine has no
// open-loop mode and a spec's run.open does not apply to it.
func (e *Experiment) buildNet() (*NetExperiment, sim.Options, error) {
	n := e.Net
	var technology network.Technology
	var sw network.Switch
	if n.Config != nil {
		resolved, err := n.resolveConfig()
		if err != nil {
			return nil, sim.Options{}, err
		}
		technology, sw = *resolved, n.Config.Switch
	} else {
		var err error
		if technology, err = network.TechnologyByName(n.Tech); err != nil {
			return nil, sim.Options{}, err
		}
		sw = network.Switch{Ports: n.Ports, Latency: n.SwLatUS / 1e6}
	}
	opts, err := e.simOptions()
	if err != nil {
		return nil, sim.Options{}, err
	}
	opts.OpenLoop = false
	return &NetExperiment{
		Tech:     technology,
		Switch:   sw,
		Topo:     n.Topo,
		N:        n.N,
		Ports:    n.Ports,
		Lambda:   n.Lambda,
		MsgBytes: n.MsgBytes,
		Arrival:  opts.Arrival,
	}, opts, nil
}
