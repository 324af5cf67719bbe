package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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
	// rescaled to each centre's price. Default is Exponential (the model's
	// assumption); Deterministic gives the M/D/1 ablation.
	ServiceDist rng.Dist
	// OpenLoop, when true, lets processors generate without waiting for
	// completions (ablation of the paper's assumption 4).
	OpenLoop bool
	// Arrival selects the arrival process (ablation of the paper's Poisson
	// assumption 2); default is workload.Poisson. Together with Pattern it
	// forms the workload.Generator the simulator consumes. Every message
	// is the configuration's MessageBytes long (assumption 6).
	Arrival workload.Arrival
	// Pattern picks destinations; default is the paper's uniform pattern.
	Pattern workload.Pattern
	// RecordSample keeps the raw measured latencies for output analysis
	// (MSER truncation, batch-means confidence intervals).
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
	// ECN1[0..C), ICN2; the switch-level simulator's hold one per link,
	// its 2N host links first.
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
	// SwitchHops accumulates the switches each measured message crossed,
	// comparable to 2d−1 (fat-tree) and (k+1)/3 (linear array); only the
	// switch-level simulator fills it.
	SwitchHops stats.Welford
}

// MeanLatency returns the measured mean message latency in seconds.
func (r *Result) MeanLatency() float64 { return r.Latency.Mean() }

// layout maps global node ids onto clusters; it implements workload.System.
type layout struct {
	prefix  []int   // prefix[i] = first node id of cluster i; len = C+1
	cluster []int32 // cluster[node] = owning cluster, one lookup per ClusterOf
}

// reset lays out cfg's nodes, reusing l's storage.
func (l *layout) reset(cfg *core.Config) {
	l.prefix = resize(l.prefix, len(cfg.Clusters)+1)
	l.prefix[0] = 0
	for i, cl := range cfg.Clusters {
		l.prefix[i+1] = l.prefix[i] + cl.Nodes
	}
	l.cluster = resize(l.cluster, l.TotalNodes())
	for i := range cfg.Clusters {
		for node := l.prefix[i]; node < l.prefix[i+1]; node++ {
			l.cluster[node] = int32(i)
		}
	}
}

func (l *layout) TotalNodes() int               { return l.prefix[len(l.prefix)-1] }
func (l *layout) NumClusters() int              { return len(l.prefix) - 1 }
func (l *layout) ClusterOf(node int) int        { return int(l.cluster[node]) }
func (l *layout) ClusterRange(c int) (int, int) { return l.prefix[c], l.prefix[c+1] }

// resize returns s at length n, reusing its storage when it is large
// enough. Elements up to the old capacity keep their values (a centre
// keeps its queue buffer); callers reinitialise every element they use.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// nameTable holds the per-cluster centre names ICN1[i] and ECN1[i].
type nameTable struct{ icn1, ecn1 []string }

// centerNames is the shared, grow-only name table: replications read it
// without formatting, and a run wider than every earlier one replaces it
// with a longer copy under nameMu.
var (
	centerNames atomic.Pointer[nameTable]
	nameMu      sync.Mutex
)

// namesFor returns a name table covering at least c clusters.
func namesFor(c int) *nameTable {
	if t := centerNames.Load(); t != nil && len(t.icn1) >= c {
		return t
	}
	nameMu.Lock()
	defer nameMu.Unlock()
	old := centerNames.Load()
	if old != nil && len(old.icn1) >= c {
		return old
	}
	t := &nameTable{icn1: make([]string, c), ecn1: make([]string, c)}
	if old != nil {
		copy(t.icn1, old.icn1)
		copy(t.ecn1, old.ecn1)
	}
	for i := range t.icn1 {
		if t.icn1[i] == "" {
			t.icn1[i], t.ecn1[i] = fmt.Sprintf("ICN1[%d]", i), fmt.Sprintf("ECN1[%d]", i)
		}
	}
	centerNames.Store(t)
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
	hop   int8 // completed hops on the remote path
	// viaRemote marks a local message detouring over the remote path
	// (ECN1 → ICN2 → ECN1) because its cluster's ICN1 failed with the
	// reroute policy; it completes after the full three-hop walk.
	viaRemote bool
}

// Simulator executes one HMSCS configuration. It implements Handler: the
// engine dispatches typed events back into it.
//
// Every slice below is storage the simulator owns: reset refills it in
// place, so a pooled simulator (see Run) builds a replication without
// allocating it again.
type Simulator struct {
	cfg  *core.Config
	opts Options
	eng  Engine
	lay  layout

	// centers is the flat centre slab indexed by centre id:
	// ICN1[0..C), ECN1[C..2C), ICN2 at 2C; icn1, ecn1 and icn2 are views.
	centers []Center
	icn1    []Center
	ecn1    []Center
	icn2    *Center

	// gen is the normalized workload (arrival × pattern); traffic holds
	// the per-processor sources instantiated from it at rates, and the
	// measurement window.
	gen     workload.Generator
	rates   []float64
	traffic Traffic

	// streams holds every random stream as a value, in the order they are
	// split from the seed's master stream: ICN1[i] and ECN1[i] at 2i and
	// 2i+1, ICN2 at 2C, then procStreams, one per processor.
	streams     []rng.Stream
	procStreams []rng.Stream

	// msgs is the pooled message table; free holds recycled indices.
	msgs []message
	free []int32

	res Result
	ran bool

	// Dynamic-scenario state (unused in stationary runs). Per centre,
	// failPolicy retains a failed centre's in-flight policy so new local
	// arrivals during an icn1 reroute outage also take the detour.
	scn        *scenario.CompiledSim
	failPolicy []scenario.Policy
}

// New builds a simulator for the configuration. Options zero values fall
// back to DefaultOptions (per field where that is unambiguous).
func New(cfg *core.Config, opts Options) (*Simulator, error) {
	s := &Simulator{}
	if err := s.reset(cfg, opts); err != nil {
		return nil, err
	}
	return s, nil
}

// reset builds s for one run of cfg under opts, refilling the storage an
// earlier run left behind. It is the one construction path: New calls it
// on a fresh simulator and Run on a pooled one.
func (s *Simulator) reset(cfg *core.Config, opts Options) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	def := DefaultOptions()
	if opts.MeasuredMessages <= 0 {
		opts.MeasuredMessages = def.MeasuredMessages
	}
	if opts.WarmupMessages < 0 {
		return fmt.Errorf("sim: negative warm-up %d", opts.WarmupMessages)
	}
	if opts.ServiceDist == nil {
		opts.ServiceDist = def.ServiceDist
	}

	c := cfg.NumClusters()
	nc := 2*c + 1
	s.cfg, s.opts = cfg, opts
	s.res, s.ran = Result{}, false
	s.lay.reset(cfg)
	s.gen = workload.Generator{Arrival: opts.Arrival, Pattern: opts.Pattern}.Normalized()
	s.eng.reset()
	s.eng.SetHandler(s)

	n := s.lay.TotalNodes()
	s.streams = resize(s.streams, nc+n)
	master := rng.NewStream(opts.Seed)
	for i := range s.streams {
		master.SplitInto(&s.streams[i])
	}
	s.procStreams = s.streams[nc:]

	s.centers = resize(s.centers, nc)
	s.icn1, s.ecn1, s.icn2 = s.centers[:c], s.centers[c:2*c], &s.centers[2*c]
	names := namesFor(c)
	for i := 0; i < c; i++ {
		s.icn1[i].Init(names.icn1[i], &s.eng, opts.ServiceDist, &s.streams[2*i], evCenterDone, int32(i))
		s.ecn1[i].Init(names.ecn1[i], &s.eng, opts.ServiceDist, &s.streams[2*i+1], evCenterDone, int32(c+i))
	}
	s.icn2.Init("ICN2", &s.eng, opts.ServiceDist, &s.streams[2*c], evCenterDone, int32(2*c))
	// Every message costs its centre the same mean for the configuration's
	// message size, so each centre is priced once per replication. cfg is
	// validated, so the models build; each run of identical clusters is
	// priced once.
	m := cfg.MessageBytes
	icn2, err := cfg.EachClusterModels(func(i, n int, icn1, ecn1 network.Model) {
		mI1, mE1 := icn1.MeanServiceTime(m), ecn1.MeanServiceTime(m)
		for j := i; j < i+n; j++ {
			s.icn1[j].Price(mI1)
			s.ecn1[j].Price(mE1)
		}
	})
	if err != nil {
		return err
	}
	s.icn2.Price(icn2.MeanServiceTime(m))

	s.rates = resize(s.rates, n)
	for p := range s.rates {
		s.rates[p] = cfg.Clusters[s.lay.ClusterOf(p)].Lambda
	}
	s.traffic.Reset(&s.eng, evGenerate, s.gen, s.rates, s.procStreams,
		opts.WarmupMessages, opts.MeasuredMessages, opts.MaxSimTime, opts.RecordSample)
	// Closed-loop runs have at most one in-flight message per processor;
	// pre-size the pool for that and let open-loop runs grow it.
	s.msgs = resize(s.msgs, n)[:0]
	s.free = resize(s.free, n)[:0]
	if s.scn = opts.Scenario; s.scn != nil {
		Dynamic(&s.traffic, s.scn.Events, evScenario, s.scn.Horizon, s.scn.Profile, s.scn.InitialDownNodes)
		s.failPolicy = zeroed(s.failPolicy, nc)
		for _, cid := range s.scn.InitialDownCenters {
			s.centers[cid].Fail(false)
		}
	}
	return nil
}

// zeroed returns s at length n with every element zero, reusing its
// storage when it is large enough.
func zeroed[T any](s []T, n int) []T {
	s = resize(s, n)
	clear(s)
	return s
}

// release drops every reference the last run left in s — its
// configuration, options (trace recorder, scenario, telemetry collector,
// workload axes), result and arrival sources — so a pooled simulator keeps
// capacity, not contents.
func (s *Simulator) release() {
	s.cfg, s.opts, s.gen, s.scn, s.res = nil, Options{}, workload.Generator{}, nil, Result{}
	s.traffic.Window, s.traffic.profile = Window{}, nil
	clear(s.traffic.sources)
	for i := range s.centers {
		s.centers[i].distTpl = nil
	}
}

// errRunTwice reports a second Run on one simulator.
var errRunTwice = errors.New("sim: Simulator.Run called twice; a simulator runs once")

// Run executes the simulation and returns its result, which owns its
// slices. The simulator is single-use: a second call returns an error.
func (s *Simulator) Run() (*Result, error) {
	if s.ran {
		return nil, errRunTwice
	}
	s.ran = true
	s.traffic.Run()
	w := &s.traffic.Window
	s.res.Throughput, s.res.TimedOut = w.Close()
	s.res.Latency, s.res.Sample, s.res.SampleTimes, s.res.Measured = w.Latency, w.Sample, w.SampleTimes, w.Latency.Count()
	s.res.SimTime = s.eng.Now()
	s.res.EffectiveLambda = s.res.Throughput / float64(s.lay.TotalNodes())
	s.res.Centers = make([]CenterStats, len(s.centers))
	for i := range s.centers {
		s.res.Centers[i] = s.centers[i].Stats()
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
	res := new(Result)
	*res = s.res
	return res, nil
}

// Handle implements Handler: the engine's event dispatch.
func (s *Simulator) Handle(kind EventKind, idx int32) {
	switch kind {
	case evGenerate:
		s.generate(int(idx))
	case evCenterDone:
		c := &s.centers[idx]
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

// generate creates one message at processor p and submits its first hop.
func (s *Simulator) generate(p int) {
	if s.scn != nil && !s.traffic.Life.Fire(p, !s.opts.OpenLoop) {
		return // voided by a node failure
	}
	s.res.Generated++
	st := &s.procStreams[p]
	dest := s.gen.Pattern.Dest(st, &s.lay, p)

	mi := s.allocMsg()
	m := &s.msgs[mi]
	*m = message{
		born:  s.eng.Now(),
		id:    s.res.Generated,
		src:   int32(p),
		dst:   int32(dest),
		srcCl: int32(s.lay.ClusterOf(p)),
		dstCl: int32(s.lay.ClusterOf(dest)),
	}
	if s.opts.Trace != nil {
		s.opts.Trace.Record(m.id, m.born, trace.Generated, fmt.Sprintf("proc:%d", p))
	}

	// In open-loop mode the source immediately starts its next think
	// period; in the paper's closed-loop mode it blocks until completion.
	if s.opts.OpenLoop {
		s.traffic.Arm(p)
	}

	if m.srcCl == m.dstCl {
		if s.scn != nil && s.failPolicy[m.srcCl] == scenario.PolicyReroute {
			// The cluster's ICN1 is down under the reroute policy: new
			// local traffic detours over the remote path too.
			m.viaRemote = true
			s.res.Rerouted++
			s.ecn1[m.srcCl].Submit(mi)
			return
		}
		// Local message: one pass through the source cluster's ICN1.
		s.icn1[m.srcCl].Submit(mi)
		return
	}
	// Remote: ECN1(src) -> ICN2 -> ECN1(dst), per Figure 2.
	s.ecn1[m.srcCl].Submit(mi)
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
		s.icn2.Submit(mi)
	case 2:
		s.ecn1[m.dstCl].Submit(mi)
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
	src := int(m.src)
	s.free = append(s.free, mi)
	// The window measures the latency (after warm-up); in closed-loop mode
	// the delivery releases the source processor.
	s.traffic.Deliver(m.born)
	if !s.opts.OpenLoop && (s.scn == nil || s.traffic.Life.Release(src)) {
		s.traffic.Arm(src)
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
			s.traffic.Life.Fail(int(p))
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
		if s.traffic.Life.Repair(int(p)) {
			s.traffic.Arm(int(p))
		}
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
	if !s.opts.OpenLoop && s.traffic.Life.Release(src) {
		s.traffic.Arm(src)
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
	s.ecn1[m.srcCl].Submit(mi)
}

// simPool holds idle simulators between replications. A replication
// takes one, resets it in place and returns it, so a run allocates its
// Result (and the slices the Result owns) plus a constant, not a
// simulator sized by the configuration.
var simPool = sync.Pool{New: func() any { return new(Simulator) }}

// Run is the package-level convenience: build and run one simulation on a
// pooled simulator. The result is the caller's; nothing in it is shared
// with the pool.
func Run(cfg *core.Config, opts Options) (*Result, error) {
	s := simPool.Get().(*Simulator)
	res, err := s.rerun(cfg, opts)
	simPool.Put(s)
	return res, err
}

// rerun resets s for one run of cfg under opts, runs it and releases it,
// leaving s ready for the next.
func (s *Simulator) rerun(cfg *core.Config, opts Options) (*Result, error) {
	err := s.reset(cfg, opts)
	var res *Result
	if err == nil {
		res, err = s.Run()
	}
	s.release()
	return res, err
}
