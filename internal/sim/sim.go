package sim

import (
	"fmt"
	"math"

	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/rng"
	"hmscs/internal/scenario"
	"hmscs/internal/stats"
	"hmscs/internal/telemetry"
	"hmscs/internal/trace"
	"hmscs/internal/workload"
)

// Options controls one simulation run.
type Options struct {
	// Seed selects the replication's random streams.
	Seed uint64
	// WarmupMessages are completed and discarded before measurement starts.
	WarmupMessages int
	// MeasuredMessages is the number of latency samples collected; the
	// paper's experiments use 10,000.
	MeasuredMessages int
	// ServiceDist is the service-time family of every centre; its mean is
	// rescaled per message. Default is Exponential (the model's
	// assumption); Deterministic gives the M/D/1 ablation.
	ServiceDist rng.Dist
	// OpenLoop, when true, lets processors generate without waiting for
	// completions (ablation of the paper's assumption 4).
	OpenLoop bool
	// Arrival selects the arrival process (ablation of the paper's Poisson
	// assumption 2); default is workload.Poisson, which is bit-identical to
	// the pre-subsystem hardcoded behaviour. Together with Pattern and
	// SizeDist it forms the workload.Generator the simulator consumes.
	Arrival workload.Arrival
	// Pattern picks destinations; default is the paper's uniform pattern.
	Pattern workload.Pattern
	// SizeDist draws per-message sizes; default is the config's fixed M.
	SizeDist workload.SizeDist
	// RecordSample keeps the raw measured latencies for histograms and
	// batch-means confidence intervals.
	RecordSample bool
	// MaxSimTime aborts a run at this simulated time (safety valve for
	// pathological configurations); zero means no limit.
	MaxSimTime float64
	// Trace, when non-nil, records every message's journey (generation,
	// per-hop completion, delivery) into the recorder.
	Trace *trace.Recorder
	// Shards is ignored: one replication always runs on one core, and
	// replications are the unit of parallelism (DESIGN.md §9). The field
	// is kept so existing callers that set it still compile.
	Shards int
	// Scenario, when non-nil, turns the run dynamic: the compiled timeline
	// injects failures, repairs and churn at event-loop granularity, and
	// its rate profile modulates every source. A scenario run covers
	// exactly [0, Horizon] — WarmupMessages and MeasuredMessages are
	// overridden (measurement spans the whole horizon; transient analysis
	// slices it afterwards) and the run never reports TimedOut
	// (DESIGN.md §11).
	Scenario *scenario.CompiledSim
	// Stats, when non-nil, receives one telemetry.SimStats record when
	// the replication finishes — engine event counts and the heap
	// high-water mark. Purely observational: results are bit-identical
	// with or without it (DESIGN.md §12).
	Stats *telemetry.Collector
}

// DefaultOptions mirrors the paper's experimental procedure with a warm-up
// prefix added (the paper gathers 10,000 messages per run).
func DefaultOptions() Options {
	return Options{
		Seed:             1,
		WarmupMessages:   2000,
		MeasuredMessages: 10000,
		ServiceDist:      rng.Exponential{MeanValue: 1},
		Pattern:          workload.Uniform{},
	}
}

// CenterStats reports one centre's simulation statistics.
type CenterStats struct {
	Name            string
	Utilization     float64
	MeanQueueLength float64
	MaxQueueLength  float64
	Served          int64
}

// Result is the outcome of one simulation run.
type Result struct {
	// Latency accumulates the measured message latencies (seconds).
	Latency stats.Welford
	// Sample holds raw latencies when Options.RecordSample is set.
	Sample []float64
	// SimTime is the simulated clock at the end of the run.
	SimTime float64
	// Generated counts every message created; Measured counts recorded ones.
	Generated int64
	Measured  int64
	// Throughput is the measured completion rate (msg/s) over the
	// measurement window.
	Throughput float64
	// EffectiveLambda is Throughput divided by the processor count: the
	// realised per-processor rate, comparable to the model's λ_eff.
	EffectiveLambda float64
	// Centers holds per-centre statistics in the order ICN1[0..C),
	// ECN1[0..C), ICN2.
	Centers []CenterStats
	// TimedOut reports that MaxSimTime stopped the run early.
	TimedOut bool
	// SampleTimes holds the absolute completion time of every Sample entry
	// in scenario runs with RecordSample (the transient estimator slices
	// latencies by completion time); empty in stationary runs.
	SampleTimes []float64
	// Dropped and Rerouted count messages hit by a failure's in-flight
	// policy in scenario runs: dropped ones vanish (their closed-loop
	// sources are released), rerouted ones detour over the surviving path.
	Dropped  int64
	Rerouted int64
}

// MeanLatency returns the measured mean message latency in seconds.
func (r *Result) MeanLatency() float64 { return r.Latency.Mean() }

// layout maps global node ids onto clusters; it implements workload.System.
type layout struct {
	prefix  []int   // prefix[i] = first node id of cluster i; len = C+1
	cluster []int32 // cluster[node] = owning cluster, one lookup per ClusterOf
}

func newLayout(cfg *core.Config) *layout {
	l := &layout{prefix: make([]int, len(cfg.Clusters)+1)}
	for i, cl := range cfg.Clusters {
		l.prefix[i+1] = l.prefix[i] + cl.Nodes
	}
	l.cluster = make([]int32, l.TotalNodes())
	for i := range cfg.Clusters {
		for node := l.prefix[i]; node < l.prefix[i+1]; node++ {
			l.cluster[node] = int32(i)
		}
	}
	return l
}

func (l *layout) TotalNodes() int               { return l.prefix[len(l.prefix)-1] }
func (l *layout) NumClusters() int              { return len(l.prefix) - 1 }
func (l *layout) ClusterOf(node int) int        { return int(l.cluster[node]) }
func (l *layout) ClusterRange(c int) (int, int) { return l.prefix[c], l.prefix[c+1] }

// serviceModel wraps a network model with a per-size cache of mean service
// times. The last (size, mean) pair is kept outside the map, so the
// fixed-size fast path costs one comparison per hop.
type serviceModel struct {
	model    *network.Model
	cache    map[int]float64
	lastSize int
	lastMean float64
}

func newServiceModel(m *network.Model) *serviceModel {
	return &serviceModel{model: m, cache: make(map[int]float64, 4), lastSize: -1}
}

func (s *serviceModel) mean(size int) float64 {
	if size == s.lastSize {
		return s.lastMean
	}
	t, ok := s.cache[size]
	if !ok {
		t = s.model.MeanServiceTime(size)
		s.cache[size] = t
	}
	s.lastSize, s.lastMean = size, t
	return t
}

// Event kinds of the system simulator.
const (
	// evGenerate fires when a processor's think time expires; idx is the
	// processor id.
	evGenerate EventKind = iota
	// evCenterDone fires when a centre completes a service; idx is the
	// centre id (index into Simulator.centers).
	evCenterDone
	// evScenario fires when a timeline event mutates the model; idx is the
	// index into the compiled scenario's event list. Scenario events are
	// scheduled at setup, before any traffic is armed, so at equal times
	// they dispatch before generations and completions — a failure at t
	// is already in force for every traffic event at t.
	evScenario
)

// message is one in-flight message's state in the pooled message table: a
// plain value record advanced by the per-hop state machine instead of a
// chain of closures.
type message struct {
	born  float64
	id    int64 // trace id (== Generated count at creation)
	src   int32
	dst   int32
	srcCl int32
	dstCl int32
	size  int32
	hop   int8 // completed hops on the remote path
	// viaRemote marks a local message detouring over the remote path
	// (ECN1 → ICN2 → ECN1) because its cluster's ICN1 failed with the
	// reroute policy; it completes after the full three-hop walk.
	viaRemote bool
}

// Simulator executes one HMSCS configuration. It implements Handler: the
// engine dispatches typed events back into it.
type Simulator struct {
	cfg  *core.Config
	opts Options
	eng  *Engine
	lay  *layout

	// centers is the flat centre table indexed by centre id:
	// ICN1[0..C), ECN1[C..2C), ICN2 at 2C.
	centers []*Center
	icn1    []*Center
	ecn1    []*Center
	icn2    *Center

	svcICN1 []*serviceModel
	svcECN1 []*serviceModel
	svcICN2 *serviceModel

	// gen is the normalized workload (arrival × pattern × size); sources
	// holds per-processor arrival state instantiated from it.
	gen     workload.Generator
	sources []workload.Source

	procStreams []*rng.Stream

	// msgs is the pooled message table; free holds recycled indices.
	msgs []message
	free []int32

	res          Result
	measureStart float64
	completed    int64

	// Dynamic-scenario state (nil/empty in stationary runs). Per
	// processor: nodeDown is the element's up/down state, thinking marks a
	// pending generation event, blocked a closed-loop source waiting for
	// its in-flight message, genDue the pending generation's due time and
	// genStale the voided generation events still in the event set (a node
	// failure cannot unschedule them). Per centre, failPolicy retains a
	// failed centre's in-flight policy so new local arrivals during an
	// icn1 reroute outage also take the detour.
	scn        *scenario.CompiledSim
	nodeDown   []bool
	thinking   []bool
	blocked    []bool
	genDue     []float64
	genStale   []int32
	failPolicy []scenario.Policy
}

// New builds a simulator for the configuration. Options zero values fall
// back to DefaultOptions (per field where that is unambiguous).
func New(cfg *core.Config, opts Options) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Scenario != nil {
		// A dynamic run covers exactly the scenario horizon: measurement
		// spans all of [0, Horizon] (the transient estimator slices it
		// afterwards) and message counts never stop the run.
		opts.MaxSimTime = opts.Scenario.Horizon
		opts.WarmupMessages = 0
		opts.MeasuredMessages = math.MaxInt32
	}
	def := DefaultOptions()
	if opts.MeasuredMessages <= 0 {
		opts.MeasuredMessages = def.MeasuredMessages
	}
	if opts.WarmupMessages < 0 {
		return nil, fmt.Errorf("sim: negative warm-up %d", opts.WarmupMessages)
	}
	if opts.ServiceDist == nil {
		opts.ServiceDist = def.ServiceDist
	}
	if opts.MaxSimTime <= 0 {
		opts.MaxSimTime = math.Inf(1)
	}

	centers, err := cfg.BuildCenters()
	if err != nil {
		return nil, err
	}

	s := &Simulator{cfg: cfg, opts: opts, lay: newLayout(cfg)}
	s.gen = workload.Generator{Arrival: opts.Arrival, Pattern: opts.Pattern, Size: opts.SizeDist}.
		Normalized(workload.FixedSize{Bytes: cfg.MessageBytes})
	s.eng = NewEngine()
	s.eng.SetHandler(s)
	master := rng.NewStream(opts.Seed)

	c := cfg.NumClusters()
	s.centers = make([]*Center, 2*c+1)
	s.icn1 = s.centers[:c]
	s.ecn1 = s.centers[c : 2*c]
	s.svcICN1 = make([]*serviceModel, c)
	s.svcECN1 = make([]*serviceModel, c)
	for i := 0; i < c; i++ {
		s.icn1[i] = NewCenter(fmt.Sprintf("ICN1[%d]", i), s.eng, opts.ServiceDist, master.Split(), evCenterDone, int32(i))
		s.ecn1[i] = NewCenter(fmt.Sprintf("ECN1[%d]", i), s.eng, opts.ServiceDist, master.Split(), evCenterDone, int32(c+i))
		s.svcICN1[i] = newServiceModel(centers.ICN1[i])
		s.svcECN1[i] = newServiceModel(centers.ECN1[i])
	}
	s.icn2 = NewCenter("ICN2", s.eng, opts.ServiceDist, master.Split(), evCenterDone, int32(2*c))
	s.centers[2*c] = s.icn2
	s.svcICN2 = newServiceModel(centers.ICN2)

	n := s.lay.TotalNodes()
	s.procStreams = make([]*rng.Stream, n)
	rates := make([]float64, n)
	for p := 0; p < n; p++ {
		s.procStreams[p] = master.Split()
		rates[p] = cfg.Clusters[s.lay.ClusterOf(p)].Lambda
	}
	s.sources = s.gen.Sources(rates)
	// Closed-loop runs have at most one in-flight message per processor;
	// pre-size the pool for that and let open-loop runs grow it.
	s.msgs = make([]message, 0, n)
	s.free = make([]int32, 0, n)
	if s.scn = opts.Scenario; s.scn != nil {
		s.nodeDown = make([]bool, n)
		s.thinking = make([]bool, n)
		s.blocked = make([]bool, n)
		s.genDue = make([]float64, n)
		s.genStale = make([]int32, n)
		s.failPolicy = make([]scenario.Policy, len(s.centers))
		for _, p := range s.scn.InitialDownNodes {
			s.nodeDown[p] = true
		}
		for _, cid := range s.scn.InitialDownCenters {
			s.centers[cid].Fail(false)
		}
	}
	return s, nil
}

// Run executes the simulation and returns its result. The simulator is
// single-use.
func (s *Simulator) Run() (*Result, error) {
	if s.opts.RecordSample {
		sampleCap := s.opts.MeasuredMessages
		if !math.IsInf(s.opts.MaxSimTime, 1) && sampleCap > 4096 {
			// A timed-out run may collect far fewer samples than requested;
			// start small and let append grow, so a truncated run does not
			// retain an oversized backing array.
			sampleCap = 4096
		}
		s.res.Sample = make([]float64, 0, sampleCap)
	}
	// Scenario events enter the event set before any traffic is armed, so
	// same-time ties always resolve timeline-first.
	if s.scn != nil {
		for i := range s.scn.Events {
			s.eng.ScheduleAt(s.scn.Events[i].T, evScenario, int32(i))
		}
	}
	// Start every processor's first think period (initially-down nodes
	// join when a repair event names them).
	for p := 0; p < s.lay.TotalNodes(); p++ {
		if s.scn != nil && s.nodeDown[p] {
			continue
		}
		s.scheduleGeneration(p)
	}
	if s.scn != nil {
		// Pin the clock to the horizon (inclusive), so SimTime and the
		// time-weighted statistics close exactly at the horizon even when
		// the event set drains early.
		s.eng.RunWindow(s.scn.Horizon, true)
	} else {
		s.eng.Run(s.opts.MaxSimTime)
	}
	if s.scn == nil && s.res.Measured < int64(s.opts.MeasuredMessages) {
		s.res.TimedOut = true
	}
	if s.res.TimedOut && len(s.res.Sample) < cap(s.res.Sample)/2 {
		// Respect MaxSimTime truncation: do not retain a mostly empty
		// backing array for the lifetime of the result.
		s.res.Sample = append(make([]float64, 0, len(s.res.Sample)), s.res.Sample...)
	}

	s.res.SimTime = s.eng.Now()
	window := s.eng.Now() - s.measureStart
	if window > 0 && s.res.Measured > 0 {
		s.res.Throughput = float64(s.res.Measured) / window
		s.res.EffectiveLambda = s.res.Throughput / float64(s.lay.TotalNodes())
	}
	for _, c := range s.centers {
		c.Flush()
		s.res.Centers = append(s.res.Centers, CenterStats{
			Name:            c.Name,
			Utilization:     c.Utilization(),
			MeanQueueLength: c.MeanQueueLength(),
			MaxQueueLength:  c.MaxQueueLength(),
			Served:          c.Served(),
		})
	}
	if s.opts.Stats != nil {
		s.opts.Stats.Add(telemetry.SimStats{
			Events:     s.eng.Executed(),
			MaxPending: int64(s.eng.MaxPending()),
			Generated:  s.res.Generated,
			Dropped:    s.res.Dropped,
			Rerouted:   s.res.Rerouted,
		})
	}
	return &s.res, nil
}

// Handle implements Handler: the engine's event dispatch.
func (s *Simulator) Handle(kind EventKind, idx int32) {
	switch kind {
	case evGenerate:
		s.generate(int(idx))
	case evCenterDone:
		c := s.centers[idx]
		if s.scn != nil && !c.TakeCompletion() {
			return // voided by a failure
		}
		s.advance(c, c.CompleteService())
	case evScenario:
		s.applyScenario(int(idx))
	default:
		panic(fmt.Sprintf("sim: unknown event kind %d", kind))
	}
}

// allocMsg takes a message slot from the pool.
func (s *Simulator) allocMsg() int32 {
	if n := len(s.free); n > 0 {
		mi := s.free[n-1]
		s.free = s.free[:n-1]
		return mi
	}
	s.msgs = append(s.msgs, message{})
	return int32(len(s.msgs) - 1)
}

// scheduleGeneration arms processor p's next message after the think time
// drawn from its arrival source (assumption 1's exponential gap by default,
// or the configured Options.Arrival process). In scenario mode the drawn
// gap is stretched through the rate profile — a pure function of (clock,
// gap), so the draw sequence is untouched.
func (s *Simulator) scheduleGeneration(p int) {
	gap := s.sources[p].Next(s.procStreams[p])
	if s.scn != nil {
		gap = s.scn.Profile.Stretch(s.eng.Now(), gap)
		s.thinking[p] = true
		s.genDue[p] = s.eng.Now() + gap
	}
	s.eng.Schedule(gap, evGenerate, int32(p))
}

// generate creates one message at processor p and submits its first hop.
func (s *Simulator) generate(p int) {
	if s.scn != nil {
		// A generation event is live exactly when the processor is still
		// thinking and the clock matches its due time; anything else is a
		// voided event left behind by a node failure.
		if !s.thinking[p] || s.eng.Now() != s.genDue[p] {
			if s.genStale[p] == 0 {
				panic(fmt.Sprintf("sim: processor %d got a generation event with no arrival due and no stale token", p))
			}
			s.genStale[p]--
			return
		}
		s.thinking[p] = false
	}
	s.res.Generated++
	st := s.procStreams[p]
	dest := s.gen.Pattern.Dest(st, s.lay, p)
	size := s.gen.Size.Sample(st)

	mi := s.allocMsg()
	m := &s.msgs[mi]
	*m = message{
		born:  s.eng.Now(),
		id:    s.res.Generated,
		src:   int32(p),
		dst:   int32(dest),
		srcCl: int32(s.lay.ClusterOf(p)),
		dstCl: int32(s.lay.ClusterOf(dest)),
		size:  int32(size),
	}
	if s.opts.Trace != nil {
		s.opts.Trace.Record(m.id, m.born, trace.Generated, fmt.Sprintf("proc:%d", p))
	}

	// In open-loop mode the source immediately starts its next think
	// period; in the paper's closed-loop mode it blocks until completion.
	if s.opts.OpenLoop {
		s.scheduleGeneration(p)
	} else if s.scn != nil {
		s.blocked[p] = true
	}

	if m.srcCl == m.dstCl {
		if s.scn != nil && s.failPolicy[m.srcCl] == scenario.PolicyReroute {
			// The cluster's ICN1 is down under the reroute policy: new
			// local traffic detours over the remote path too.
			m.viaRemote = true
			s.res.Rerouted++
			s.ecn1[m.srcCl].Submit(s.svcECN1[m.srcCl].mean(size), mi)
			return
		}
		// Local message: one pass through the source cluster's ICN1.
		s.icn1[m.srcCl].Submit(s.svcICN1[m.srcCl].mean(size), mi)
		return
	}
	// Remote: ECN1(src) -> ICN2 -> ECN1(dst), per Figure 2.
	s.ecn1[m.srcCl].Submit(s.svcECN1[m.srcCl].mean(size), mi)
}

// advance is the per-message hop state machine: centre c has finished
// serving message mi, so route it to its next stage or the sink.
func (s *Simulator) advance(c *Center, mi int32) {
	m := &s.msgs[mi]
	if s.opts.Trace != nil {
		s.opts.Trace.Record(m.id, s.eng.Now(), trace.HopDone, c.Name)
	}
	if m.srcCl == m.dstCl && !m.viaRemote {
		s.complete(mi)
		return
	}
	m.hop++
	switch m.hop {
	case 1:
		s.icn2.Submit(s.svcICN2.mean(int(m.size)), mi)
	case 2:
		s.ecn1[m.dstCl].Submit(s.svcECN1[m.dstCl].mean(int(m.size)), mi)
	default:
		s.complete(mi)
	}
}

// complete sinks a delivered message and recycles its pool slot.
func (s *Simulator) complete(mi int32) {
	m := &s.msgs[mi]
	if s.opts.Trace != nil {
		s.opts.Trace.Record(m.id, s.eng.Now(), trace.Delivered, fmt.Sprintf("proc:%d", m.dst))
	}
	src, born := int(m.src), m.born
	s.free = append(s.free, mi)
	s.deliver(src, born)
}

// deliver records a completed message's latency (after warm-up) and, in
// closed-loop mode, releases the source processor.
func (s *Simulator) deliver(src int, born float64) {
	s.completed++
	// The measurement window opens when the last warm-up message completes
	// (immediately, at time zero, when there is no warm-up).
	if s.completed == int64(s.opts.WarmupMessages) {
		s.measureStart = s.eng.Now()
	}
	if s.completed > int64(s.opts.WarmupMessages) && s.res.Measured < int64(s.opts.MeasuredMessages) {
		lat := s.eng.Now() - born
		s.res.Latency.Add(lat)
		if s.opts.RecordSample {
			s.res.Sample = append(s.res.Sample, lat)
			if s.scn != nil {
				s.res.SampleTimes = append(s.res.SampleTimes, s.eng.Now())
			}
		}
		s.res.Measured++
		if s.res.Measured == int64(s.opts.MeasuredMessages) {
			s.eng.Stop()
		}
	}
	if !s.opts.OpenLoop {
		if s.scn != nil {
			s.blocked[src] = false
			if s.nodeDown[src] {
				return // the node died in flight; it re-arms at repair
			}
		}
		s.scheduleGeneration(src)
	}
}

// applyScenario executes one timeline event. Within an event, failures
// take nodes before centres (so a dropped message of a just-failed node
// does not re-arm its source) and repairs take centres before nodes. The
// order is part of the engine's output contract: scenario results
// depend on it.
func (s *Simulator) applyScenario(i int) {
	ev := &s.scn.Events[i]
	if ev.Fail {
		for _, p := range ev.Nodes {
			s.failNode(int(p))
		}
		for _, cid := range ev.Centers {
			s.failCenter(cid, ev.Policy)
		}
		return
	}
	for _, cid := range ev.Centers {
		s.repairCenter(cid)
	}
	for _, p := range ev.Nodes {
		s.repairNode(int(p))
	}
}

// failNode stops processor p generating. A pending generation event
// cannot be unscheduled, so it is voided by a stale token; a blocked
// source stays blocked — its in-flight message continues, and the
// delivery notices the node is down.
func (s *Simulator) failNode(p int) {
	s.nodeDown[p] = true
	if s.thinking[p] {
		s.thinking[p] = false
		s.genStale[p]++
	}
}

// repairNode restarts processor p: idle nodes re-arm immediately,
// blocked ones re-arm when their in-flight message delivers.
func (s *Simulator) repairNode(p int) {
	s.nodeDown[p] = false
	if !s.thinking[p] && !s.blocked[p] {
		s.scheduleGeneration(p)
	}
}

// failCenter takes a centre down and applies the event's in-flight
// policy to the evicted messages (requeue evicts nothing).
func (s *Simulator) failCenter(cid int32, pol scenario.Policy) {
	s.failPolicy[cid] = pol
	evict := pol == scenario.PolicyDrop || pol == scenario.PolicyReroute
	victims := s.centers[cid].Fail(evict)
	for _, mi := range victims {
		if pol == scenario.PolicyDrop {
			s.dropMsg(mi)
		} else {
			s.rerouteMsg(mi)
		}
	}
}

func (s *Simulator) repairCenter(cid int32) {
	s.failPolicy[cid] = scenario.PolicyNone
	s.centers[cid].Repair()
}

// dropMsg discards an evicted in-flight message; its closed-loop source
// is released immediately (a drop loses work, not a source).
func (s *Simulator) dropMsg(mi int32) {
	s.res.Dropped++
	src := int(s.msgs[mi].src)
	s.free = append(s.free, mi)
	if !s.opts.OpenLoop {
		s.blocked[src] = false
		if !s.nodeDown[src] {
			s.scheduleGeneration(src)
		}
	}
}

// rerouteMsg re-submits an evicted local message over the remote path
// (only icn1 failures carry the reroute policy, so every victim is a
// local first-hop message).
func (s *Simulator) rerouteMsg(mi int32) {
	m := &s.msgs[mi]
	m.viaRemote = true
	m.hop = 0
	s.res.Rerouted++
	s.ecn1[m.srcCl].Submit(s.svcECN1[m.srcCl].mean(int(m.size)), mi)
}

// Run is the package-level convenience: build and run one simulation.
func Run(cfg *core.Config, opts Options) (*Result, error) {
	s, err := New(cfg, opts)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
