package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/output"
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
	// (MSER truncation, batch-means confidence intervals). A scenario run
	// needs no sample: it bins its latencies as it measures them.
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
	Name            string  `json:"name"`
	Utilization     float64 `json:"utilization"`
	MeanQueueLength float64 `json:"mean_qlen"`
	MaxQueueLength  float64 `json:"max_qlen"`
	Served          int64   `json:"served"`
}

// Result is the outcome of one simulation run. Its JSON form is the
// worker fleet's wire format (internal/dist): exact, so a decoded result
// is bit-identical to the encoded one.
type Result struct {
	// Latency accumulates the measured message latencies (seconds).
	Latency stats.Welford `json:"latency"`
	// Sample holds raw latencies when Options.RecordSample is set.
	Sample []float64 `json:"sample,omitempty"`
	// SliceSums and SliceCounts bin a scenario run's measured latencies by
	// completion time into its window's slices (output.Bins): slice k's
	// sum and count of the latencies that completed in it. Empty in
	// stationary runs.
	SliceSums   []float64 `json:"slice_sums,omitempty"`
	SliceCounts []int64   `json:"slice_counts,omitempty"`
	// SimTime is the simulated clock at the end of the run.
	SimTime float64 `json:"sim_time"`
	// Generated counts every message created; Measured counts recorded ones.
	Generated int64 `json:"generated"`
	Measured  int64 `json:"measured"`
	// Throughput is the measured completion rate (msg/s) over the
	// measurement window.
	Throughput float64 `json:"throughput"`
	// EffectiveLambda is Throughput divided by the processor count: the
	// realised per-processor rate, comparable to the model's λ_eff.
	EffectiveLambda float64 `json:"effective_lambda"`
	// Centers holds per-centre statistics in the order ICN1[0..C),
	// ECN1[0..C), ICN2; the switch-level simulator's hold one per link,
	// its 2N host links first.
	Centers []CenterStats `json:"centers,omitempty"`
	// TimedOut reports that MaxSimTime stopped the run early.
	TimedOut bool `json:"timed_out,omitempty"`
	// Dropped and Rerouted count messages hit by a failure's in-flight
	// policy in scenario runs: dropped ones vanish (their closed-loop
	// sources are released), rerouted ones detour over the surviving path.
	Dropped  int64 `json:"dropped,omitempty"`
	Rerouted int64 `json:"rerouted,omitempty"`
	// SwitchHops accumulates the switches each measured message crossed,
	// comparable to 2d−1 (fat-tree) and (k+1)/3 (linear array); only the
	// switch-level simulator fills it.
	SwitchHops stats.Welford `json:"switch_hops"`
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

// Topology is a switch-level network the Simulator routes messages over
// (internal/netsim builds them). Its endpoints are the traffic sources and
// the pattern's nodes, its links are the centres, and a message's route is
// the links it crosses plus a fixed tail delay. A topology is built once
// and read by concurrent replications, so nothing here may write it.
type Topology interface {
	workload.System
	// Links returns the number of links.
	Links() int
	// MaxRoute bounds the length of every route.
	MaxRoute() int
	// Route appends to path the links from endpoint src to dst, drawing
	// any routing choice from st, and returns the path, the switches it
	// crosses and the tail delay paid after its last link. In a scenario
	// run live is the run's centre slab, whose failed links a route may
	// steer around; in a stationary run it is nil.
	Route(path []int32, st *rng.Stream, src, dst int, live []Center) ([]int32, int32, float64)
}

// Event kinds of the simulator.
const (
	// evGenerate fires when a source's think time expires; idx is the
	// source (processor or endpoint) id.
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
	// evDeliver fires when a message has paid its route's tail delay
	// under the scheduled delivery policy; idx is the message index.
	evDeliver
)

// message is one in-flight message's state in the pooled message table: a
// plain value record walked along its route instead of a chain of
// closures. Its route is the message's slot in Simulator.paths.
type message struct {
	born float64
	tail float64 // delay after the last centre (scheduled policy)
	id   int64   // trace id (== Generated count at creation)
	src  int32
	dst  int32
	pos  int32 // index of the centre serving it
	n    int32 // route length
	hops int32 // switches crossed
}

// pendDelivery is a delivery awaiting its instant's canonical commit.
type pendDelivery struct {
	born float64
	src  int32
	hops int32
}

// Simulator executes one replication of either model: the paper's
// cluster system (a core.Config, one centre per network) or a
// switch-level Topology (one centre per link). Both generate, walk routes,
// sink, fail and drop through the same code; they differ only in how
// centres and streams are laid out and priced, and in the delivery
// policy (DESIGN.md §3). It implements Handler: the engine dispatches
// typed events back into it.
//
// Every slice below is storage the simulator owns: a reset refills it in
// place, so a pooled simulator (see Run) builds a replication without
// allocating it again.
type Simulator struct {
	cfg  *core.Config // the cluster model's configuration; nil over a topology
	topo Topology     // the switch-level model; nil for the cluster model
	sys  workload.System
	opts Options
	eng  Engine
	lay  layout

	// centers is the flat centre slab indexed by centre id. The cluster
	// model has ICN1[0..C), ECN1[C..2C) and ICN2 at 2C; a topology one
	// centre per link.
	centers []Center

	// The traffic: gen is the normalized workload (arrival × pattern),
	// sources its arrival processes at rates (source p draws from
	// procStreams[p] and fires (evGenerate, p)), life their scenario
	// state, and win the measurement window their deliveries fill. maxT
	// is the time cap, or the horizon in a scenario run, whose rate
	// profile stretches every gap.
	gen     workload.Generator
	rates   []float64
	sources []workload.Source
	life    Lifecycle
	win     Window
	profile *scenario.Profile
	maxT    float64

	// streams holds every random stream as a value: the centres' first,
	// then procStreams, one per source (see reset and resetTopology).
	streams     []rng.Stream
	procStreams []rng.Stream

	// msgs is the pooled message table; free holds recycled indices.
	// Message i's route is paths[i*stride : i*stride+msgs[i].n].
	msgs   []message
	free   []int32
	paths  []int32
	stride int

	// scheduled selects the delivery policy. The cluster model completes
	// a message inline when it leaves its last centre. A topology
	// schedules its delivery after the route's tail delay, and pend
	// collects the current instant's deliveries for their commit.
	scheduled bool
	pend      []pendDelivery

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
// earlier run left behind. It is the cluster model's construction path:
// New calls it on a fresh simulator and Run on a pooled one. Its streams
// are split from the seed in one sequence: ICN1[i] and ECN1[i] at 2i and
// 2i+1, ICN2 at 2C, then one per processor.
func (s *Simulator) reset(cfg *core.Config, opts Options) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	c := cfg.NumClusters()
	nc := 2*c + 1
	s.cfg, s.topo, s.sys = cfg, nil, &s.lay
	s.lay.reset(cfg)
	n := s.lay.TotalNodes()
	if err := s.begin(opts, nc, n, 3, false); err != nil {
		return err
	}
	opts = s.opts

	master := rng.NewStream(opts.Seed)
	for i := range s.streams {
		master.SplitInto(&s.streams[i])
	}
	names := namesFor(c)
	for i := 0; i < c; i++ {
		s.centers[i].Init(names.icn1[i], &s.eng, opts.ServiceDist, &s.streams[2*i], evCenterDone, int32(i))
		s.centers[c+i].Init(names.ecn1[i], &s.eng, opts.ServiceDist, &s.streams[2*i+1], evCenterDone, int32(c+i))
	}
	icn2 := &s.centers[2*c]
	icn2.Init("ICN2", &s.eng, opts.ServiceDist, &s.streams[2*c], evCenterDone, int32(2*c))
	// Every message costs its centre the same mean for the configuration's
	// message size, so each centre is priced once per replication. cfg is
	// validated, so the models build; each run of identical clusters is
	// priced once.
	m := cfg.MessageBytes
	model, err := cfg.EachClusterModels(func(i, n int, icn1, ecn1 network.Model) {
		mI1, mE1 := icn1.MeanServiceTime(m), ecn1.MeanServiceTime(m)
		for j := i; j < i+n; j++ {
			s.centers[j].Price(mI1)
			s.centers[c+j].Price(mE1)
		}
	})
	if err != nil {
		return err
	}
	icn2.Price(model.MeanServiceTime(m))

	for p := range s.rates {
		s.rates[p] = cfg.Clusters[s.lay.ClusterOf(p)].Lambda
	}
	s.start()
	return nil
}

// resetTopology builds s for one closed-loop run over t: every endpoint
// generates at rate while idle and every link serves a message in price
// on average. Link streams are split from the seed in link-id order and
// endpoint streams from a second master stream, so a topology's link
// draws do not shift with its endpoint count.
func (s *Simulator) resetTopology(t Topology, rate, price float64, opts Options) error {
	if opts.OpenLoop {
		return errors.New("sim: a topology runs closed-loop only")
	}
	nl, n := t.Links(), t.TotalNodes()
	s.cfg, s.topo, s.sys = nil, t, t
	if err := s.begin(opts, nl, n, t.MaxRoute(), true); err != nil {
		return err
	}
	opts = s.opts

	links := rng.NewStream(opts.Seed)
	for i := range s.centers {
		links.SplitInto(&s.streams[i])
		s.centers[i].Init("", &s.eng, opts.ServiceDist, &s.streams[i], evCenterDone, int32(i))
		s.centers[i].Price(price)
	}
	endpoints := rng.NewStream(opts.Seed ^ 0xabcdef12345)
	for i := range s.procStreams {
		endpoints.SplitInto(&s.procStreams[i])
		s.rates[i] = rate
	}
	s.start()
	return nil
}

// begin readies the run state both models share for nc centres, n
// sources and routes of up to stride centres: the options, the engine,
// the stream, centre and rate slabs (filled by the caller) and the
// message table.
func (s *Simulator) begin(opts Options, nc, n, stride int, scheduled bool) error {
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
	s.opts, s.scheduled, s.stride = opts, scheduled, stride
	s.res, s.ran = Result{}, false
	s.gen = workload.Generator{Arrival: opts.Arrival, Pattern: opts.Pattern}.Normalized()
	s.eng.reset()
	s.eng.SetHandler(s)
	s.streams = resize(s.streams, nc+n)
	s.procStreams = s.streams[nc:]
	s.centers = resize(s.centers, nc)
	s.rates = resize(s.rates, n)
	// Closed-loop runs have at most one in-flight message per source;
	// pre-size the table for that and let open-loop runs grow it.
	s.msgs = resize(s.msgs, n)[:0]
	s.free = resize(s.free, n)[:0]
	s.paths = resize(s.paths, cap(s.msgs)*stride)
	s.pend = s.pend[:0]
	return nil
}

// start readies the sources and the window. A stationary window
// discards the warm-up deliveries, measures up to the target and stops
// the run there or at the time cap. A scenario run covers exactly
// [0, Horizon] instead (DESIGN.md §11): its timeline events are scheduled
// here, before any traffic is armed, so at equal times they dispatch
// first and a failure at t is in force for every traffic event at t; the
// profile stretches every gap, the elements the timeline starts without
// are down (they join when a repair names them), and the window measures
// the whole horizon.
func (s *Simulator) start() {
	opts := s.opts
	s.win = Window{eng: &s.eng, warmup: int64(opts.WarmupMessages), target: int64(opts.MeasuredMessages), record: opts.RecordSample}
	s.sources = s.gen.Sources(s.sources, s.rates)
	s.profile, s.maxT = nil, opts.MaxSimTime
	if s.maxT <= 0 {
		s.maxT = math.Inf(1)
	}
	if s.scn = opts.Scenario; s.scn == nil {
		return
	}
	for i, ev := range s.scn.Events {
		s.eng.ScheduleAt(ev.T, evScenario, int32(i))
	}
	s.profile, s.maxT = s.scn.Profile, s.scn.Horizon
	s.win.warmup, s.win.target, s.win.dynamic = 0, math.MaxInt32, true
	s.win.Bins = output.NewBins(s.scn.Horizon, s.scn.Slice)
	s.life.Reset(&s.eng, len(s.sources))
	for _, p := range s.scn.InitialDownNodes {
		s.life.Fail(int(p))
	}
	s.failPolicy = zeroed(s.failPolicy, len(s.centers))
	for _, cid := range s.scn.InitialDownCenters {
		s.centers[cid].Fail(false)
	}
}

// zeroed returns s at length n with every element zero, reusing its
// storage when it is large enough.
func zeroed[T any](s []T, n int) []T {
	s = resize(s, n)
	clear(s)
	return s
}

// release drops every reference the last run left in s — its
// configuration or topology, options (trace recorder, scenario, telemetry
// collector, workload axes), result and arrival sources — so a pooled
// simulator keeps capacity, not contents.
func (s *Simulator) release() {
	s.cfg, s.topo, s.sys, s.opts, s.gen, s.scn, s.res = nil, nil, nil, Options{}, workload.Generator{}, nil, Result{}
	s.win, s.profile = Window{}, nil
	clear(s.sources)
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
	if s.win.record {
		// A time cap (a scenario's horizon included) may stop the run
		// far short of its target, so such a run reserves at most 4,096
		// samples and grows past them by append.
		n := s.win.target
		if !math.IsInf(s.maxT, 1) {
			n = min(n, 4096)
		}
		s.win.Sample = make([]float64, 0, n)
	}
	for p := range s.sources {
		if s.scn == nil || !s.life.Down(p) {
			s.arm(p)
		}
	}
	if s.scn != nil {
		// The clock is pinned at the horizon even if the event set
		// drains early, so time-weighted statistics close there.
		s.eng.RunWindow(s.maxT, true)
	} else {
		s.eng.Run(s.maxT)
	}
	w := &s.win
	s.res.Throughput, s.res.TimedOut = w.Close()
	s.res.Latency, s.res.Sample, s.res.Measured = w.Latency, w.Sample, w.Latency.Count()
	s.res.SliceSums, s.res.SliceCounts = w.Bins.Sums, w.Bins.Counts
	s.res.SimTime = s.eng.Now()
	s.res.EffectiveLambda = s.res.Throughput / float64(s.sys.TotalNodes())
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

// Handle implements Handler: the engine's event dispatch. Under the
// scheduled delivery policy, the deliveries an instant collected are
// committed once the instant drains (commit).
func (s *Simulator) Handle(kind EventKind, idx int32) {
	switch kind {
	case evGenerate:
		s.generate(int(idx))
	case evCenterDone:
		c := &s.centers[idx]
		if s.scn != nil && !c.TakeCompletion() {
			break // voided by a failure
		}
		mi := c.CompleteService()
		m := &s.msgs[mi]
		if s.opts.Trace != nil {
			s.opts.Trace.Record(m.id, s.eng.Now(), trace.HopDone, c.Name)
		}
		if m.pos++; m.pos < m.n {
			s.centers[s.paths[int(mi)*s.stride+int(m.pos)]].Submit(mi)
			break
		}
		// The message has left its last centre.
		if !s.scheduled {
			s.sink(mi)
		} else {
			s.eng.Schedule(m.tail, evDeliver, mi)
		}
	case evDeliver:
		s.sink(idx)
	case evScenario:
		s.applyScenario(int(idx))
	default:
		panic(fmt.Sprintf("sim: unknown event kind %d", kind))
	}
	if len(s.pend) > 0 && s.eng.NextEventAt() != s.eng.Now() {
		s.commit()
	}
}

// arm schedules source p's next generation after a gap drawn from its
// arrival process; in a scenario run the gap is stretched through the
// rate profile (a pure function of clock and gap, so the draw sequence is
// untouched) and the event is recorded as p's pending one.
func (s *Simulator) arm(p int) {
	gap := s.sources[p].Next(&s.procStreams[p])
	if s.scn == nil {
		s.eng.Schedule(gap, evGenerate, int32(p))
		return
	}
	s.life.Armed(p, s.eng.Schedule(s.profile.Stretch(s.eng.Now(), gap), evGenerate, int32(p)))
}

// allocMsg takes a message slot from the pool, growing the route slab
// with the table.
func (s *Simulator) allocMsg() int32 {
	if n := len(s.free); n > 0 {
		mi := s.free[n-1]
		s.free = s.free[:n-1]
		return mi
	}
	s.msgs = append(s.msgs, message{})
	if n := cap(s.msgs) * s.stride; len(s.paths) < n {
		s.paths = resize(s.paths, n)
	}
	return int32(len(s.msgs) - 1)
}

// generate creates one message at source p, routes it and submits its
// first hop.
func (s *Simulator) generate(p int) {
	if s.scn != nil && !s.life.Fire(p, !s.opts.OpenLoop) {
		return // voided by a node failure
	}
	s.res.Generated++
	st := &s.procStreams[p]
	dest := s.gen.Pattern.Dest(st, s.sys, p)

	mi := s.allocMsg()
	m := &s.msgs[mi]
	*m = message{born: s.eng.Now(), id: s.res.Generated, src: int32(p), dst: int32(dest)}
	if s.opts.Trace != nil {
		s.opts.Trace.Record(m.id, m.born, trace.Generated, fmt.Sprintf("proc:%d", p))
	}

	// In open-loop mode the source immediately starts its next think
	// period; in the paper's closed-loop mode it blocks until completion.
	if s.opts.OpenLoop {
		s.arm(p)
	}
	s.route(mi, st)
}

// route writes message mi's route from its source into its slot of the
// route slab, drawing any routing choice from st, and submits its first
// hop.
func (s *Simulator) route(mi int32, st *rng.Stream) {
	m := &s.msgs[mi]
	base := int(mi) * s.stride
	path := s.paths[base : base : base+s.stride]
	if s.topo == nil {
		path = s.clusterRoute(path, m.src, m.dst)
	} else {
		var live []Center
		if s.scn != nil {
			live = s.centers
		}
		path, m.hops, m.tail = s.topo.Route(path, st, int(m.src), int(m.dst), live)
		if len(path) > s.stride {
			panic(fmt.Sprintf("sim: a %d-link route exceeds the topology's bound %d", len(path), s.stride))
		}
	}
	m.pos, m.n = 0, int32(len(path))
	s.centers[path[0]].Submit(mi)
}

// clusterRoute appends the cluster model's route (Figure 2): a local
// message crosses its cluster's ICN1, a remote one ECN1(src) → ICN2 →
// ECN1(dst). A local message takes the remote path too while its ICN1 is
// down under the reroute policy, and counts as rerouted.
func (s *Simulator) clusterRoute(path []int32, src, dst int32) []int32 {
	sc, dc := s.lay.cluster[src], s.lay.cluster[dst]
	if sc == dc {
		if s.scn == nil || s.failPolicy[sc] != scenario.PolicyReroute {
			return append(path, sc)
		}
		s.res.Rerouted++
	}
	c := int32(s.lay.NumClusters())
	return append(path, c+sc, 2*c, c+dc)
}

// sink retires a delivered message and recycles its pool slot. The
// cluster model measures it at once; the scheduled policy holds it for
// the instant's commit. In closed-loop mode the delivery releases the
// source.
func (s *Simulator) sink(mi int32) {
	m := &s.msgs[mi]
	if s.opts.Trace != nil {
		s.opts.Trace.Record(m.id, s.eng.Now(), trace.Delivered, fmt.Sprintf("proc:%d", m.dst))
	}
	src := int(m.src)
	s.free = append(s.free, mi)
	if s.scheduled {
		s.pend = append(s.pend, pendDelivery{born: m.born, src: m.src, hops: m.hops})
	} else {
		s.win.Deliver(m.born)
	}
	if !s.opts.OpenLoop && (s.scn == nil || s.life.Release(src)) {
		s.arm(src)
	}
}

// commit hands the current instant's deliveries to the measurement
// window in canonical (born, source) order, adding each measured one's
// switch count. Messages delivered at exactly the same time have no
// physical order, so the accumulators see them in this order rather than
// event-scheduling order: deterministic link service aligns deliveries on
// an exact-tie lattice, and every reported statistic depends on it.
func (s *Simulator) commit() {
	slices.SortFunc(s.pend, func(a, b pendDelivery) int {
		if a.born != b.born {
			if a.born < b.born {
				return -1
			}
			return 1
		}
		return int(a.src - b.src)
	})
	for _, d := range s.pend {
		if s.win.Deliver(d.born) {
			s.res.SwitchHops.Add(float64(d.hops))
		}
	}
	s.pend = s.pend[:0]
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
			s.life.Fail(int(p))
		}
		for _, cid := range ev.Centers {
			s.failCenter(cid, ev.Policy)
		}
		return
	}
	for _, cid := range ev.Centers {
		s.failPolicy[cid] = scenario.PolicyNone
		s.centers[cid].Repair()
	}
	for _, p := range ev.Nodes {
		if s.life.Repair(int(p)) {
			s.arm(int(p))
		}
	}
}

// failCenter takes a centre down and applies the event's in-flight
// policy to the evicted messages (requeue evicts nothing). Only the
// cluster model's ICN1 failures carry reroute, so every rerouted victim
// is a local first-hop message: it restarts over the remote path.
func (s *Simulator) failCenter(cid int32, pol scenario.Policy) {
	s.failPolicy[cid] = pol
	evict := pol == scenario.PolicyDrop || pol == scenario.PolicyReroute
	for _, mi := range s.centers[cid].Fail(evict) {
		if pol == scenario.PolicyDrop {
			s.dropMsg(mi)
		} else {
			s.route(mi, nil)
		}
	}
}

// dropMsg discards an evicted in-flight message; its closed-loop source
// is released immediately (a drop loses work, not a source).
func (s *Simulator) dropMsg(mi int32) {
	s.res.Dropped++
	src := int(s.msgs[mi].src)
	s.free = append(s.free, mi)
	if !s.opts.OpenLoop && s.life.Release(src) {
		s.arm(src)
	}
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

// RunTopology runs one closed-loop replication over t on a pooled
// simulator: every endpoint generates at rate while idle, every link
// serves a message in price on average, and opts supply the rest (its
// OpenLoop must be false). t is only read, so concurrent replications
// may share it.
func RunTopology(t Topology, rate, price float64, opts Options) (*Result, error) {
	s := simPool.Get().(*Simulator)
	err := s.resetTopology(t, rate, price, opts)
	var res *Result
	if err == nil {
		res, err = s.Run()
	}
	s.release()
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
