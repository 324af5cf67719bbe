package sim

import (
	"fmt"
	"math"
	"slices"
	"time"

	"hmscs/internal/core"
	"hmscs/internal/rng"
	"hmscs/internal/scenario"
	"hmscs/internal/telemetry"
	"hmscs/internal/workload"
)

// This file implements the sharded execution mode: one replication split
// across Options.Shards concurrent shards, each owning a contiguous range
// of clusters (their processors, ICN1 and ECN1 centres; shard 0 also owns
// ICN2) with its own engine and clock. Shards advance in bounded time
// windows; cross-shard hand-offs travel through per-shard-pair mailboxes
// that are merged deterministically by (time, source shard, emission seq)
// at each window barrier. A window is re-executed from a snapshot until
// the mailboxes reach a fixed point, which equals the sequential
// execution restricted to the window — so results are bit-identical to
// the sequential engine at every shard count. See DESIGN.md §9 for the
// protocol, its convergence argument, and the equal-timestamp caveat.

// xferKind discriminates cross-shard hand-offs.
type xferKind uint8

const (
	// xfSubmitICN2 hands a remote message to shard 0's ICN2 queue.
	xfSubmitICN2 xferKind = iota
	// xfSubmitECN1 hands a remote message to its destination cluster's
	// ECN1 queue (the final hop).
	xfSubmitECN1
	// xfDeliver releases the source processor of a delivered message
	// (closed-loop mode only).
	xfDeliver
)

// xfer is one cross-shard hand-off. It is a plain value record — the
// message travels by value — so mailboxes are reusable slices with no
// per-message allocation, and whole mailboxes compare with slices.Equal
// for fixed-point detection.
type xfer struct {
	at   float64
	src  int32 // emitting shard
	seq  int32 // emission index within the (src, dst) mailbox this window
	kind xferKind
	m    message
}

// cmpXfer is the deterministic mailbox merge order: time, then emitting
// shard, then emission order. (src, seq) is unique per entry, so the
// order is total.
func cmpXfer(a, b xfer) int {
	switch {
	case a.at != b.at:
		if a.at < b.at {
			return -1
		}
		return 1
	case a.src != b.src:
		return int(a.src - b.src)
	default:
		return int(a.seq - b.seq)
	}
}

// delivery is one sunk message in a shard's window log. The coordinator
// merges the logs by (time, shard, index) and replays them in order,
// reconstructing the global measurement counters exactly as the
// sequential deliver() updates them.
type delivery struct {
	at   float64
	born float64
}

// shardSnap is a reusable snapshot of one shard's mutable state at a
// window boundary; buffers are recycled across windows.
type shardSnap struct {
	eng       EngineState
	centers   []CenterState
	streams   []rng.Stream
	sources   []workload.Source
	msgs      []message
	free      []int32
	generated int64

	// Scenario state (allocated only for dynamic runs): the shard's slice
	// of the coordinator's per-processor arrays, the retained policy of
	// each owned centre, and the shard-local drop/reroute counters. All of
	// it mutates during a window, so all of it rewinds with the window.
	nodeDown []bool
	thinking []bool
	blocked  []bool
	genDue   []float64
	genStale []int32
	policy   []scenario.Policy
	dropped  int64
	rerouted int64
}

// simShard is one shard of a sharded simulation. It implements Handler
// for its own engine; outside pool barriers it touches only state it
// owns, so shards never race.
type simShard struct {
	id int
	o  *shardedSim

	eng *Engine

	clusterLo, clusterHi int
	procLo, procHi       int
	owned                []*Center // centres this shard advances

	// msgs is this shard's pooled message table (messages are re-pooled
	// on the shard that currently holds them; slot indices never affect
	// results).
	msgs      []message
	free      []int32
	generated int64

	// dropped and rerouted count this shard's scenario-policy victims;
	// finish() sums them into the Result.
	dropped  int64
	rerouted int64

	stateful bool // any owned arrival source carries per-draw state

	inbox []xfer   // injected hand-offs, sorted by cmpXfer
	out   [][]xfer // per-destination-shard mailboxes for this window
	log   []delivery

	dirty           bool
	cutPre, cutNeed int

	snap shardSnap
}

// shardedSim coordinates the shards of one replication and owns the
// global measurement state that the sequential Simulator keeps inline.
type shardedSim struct {
	cfg  *core.Config
	opts Options
	lay  *layout
	gen  workload.Generator

	centers []*Center
	icn1    []*Center
	ecn1    []*Center
	icn2    *Center

	svcICN1 []*serviceModel
	svcECN1 []*serviceModel
	svcICN2 *serviceModel

	sources     []workload.Source
	procStreams []*rng.Stream

	clusterShard []int32
	procShard    []int32

	shards []*simShard
	pool   *ShardPool
	window float64

	res          Result
	measureStart float64
	completed    int64

	// Dynamic-scenario state, mirroring Simulator's: global per-processor
	// and per-centre arrays that each shard touches only on its own range
	// (so shards never race), snapshot and restored slice-wise by the
	// owning shard at window boundaries.
	scn        *scenario.CompiledSim
	nodeDown   []bool
	thinking   []bool
	blocked    []bool
	genDue     []float64
	genStale   []int32
	failPolicy []scenario.Policy

	cand [][]xfer // merge scratch, one buffer per receiving shard
	sel  []bool
	idx  []int // replay cursor per shard

	// Shard-efficiency counters (DESIGN.md §12): windows executed,
	// dirty-shard re-executions to fixed point, stop-cut rewinds, and
	// committed hand-off volume (total and per (src, dst) shard pair).
	// All are bumped by the coordinator goroutine only — the outcome of
	// the deterministic fixed-point algorithm, so they are themselves
	// deterministic for a given (spec, seed, shards).
	windows, reruns, rewinds, handoffs int64
	pairHandoffs                       [][]int64
	profID                             int
}

// maxWindowIters bounds the fixed-point iteration per window. Convergence
// needs at most one iteration per cross-shard hand-off in the window (the
// correct prefix of the merged mailbox order grows every round), so this
// only trips on a zero-latency cross-shard cycle — impossible while every
// hand-off is separated from its consequences by a positive service time.
const maxWindowIters = 1 << 20

// runSharded executes one replication with opts.Shards >= 2.
func runSharded(cfg *core.Config, opts Options) (*Result, error) {
	o, err := newSharded(cfg, opts)
	if err != nil {
		return nil, err
	}
	return o.run()
}

// newSharded mirrors New's validation, defaulting and — critically — its
// random-stream creation order exactly, then partitions clusters across
// shards.
func newSharded(cfg *core.Config, opts Options) (*shardedSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Scenario != nil {
		// Mirror New: a dynamic run covers exactly the scenario horizon.
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
	if opts.Trace != nil {
		return nil, fmt.Errorf("sim: per-message tracing is sequential-only; use shards=1 (got shards=%d)", opts.Shards)
	}
	s := opts.Shards
	c := cfg.NumClusters()
	if s > c {
		return nil, fmt.Errorf("sim: %d shards exceed the configuration's %d clusters — each shard must own at least one cluster; lower -shards to at most %d", s, c, c)
	}

	built, err := cfg.BuildCenters()
	if err != nil {
		return nil, err
	}

	o := &shardedSim{cfg: cfg, opts: opts, lay: newLayout(cfg)}
	o.gen = workload.Generator{Arrival: opts.Arrival, Pattern: opts.Pattern, Size: opts.SizeDist}.
		Normalized(workload.FixedSize{Bytes: cfg.MessageBytes})

	// Partition clusters contiguously and evenly: cluster cl -> shard
	// cl·S/C. Processors and both per-cluster centres follow their
	// cluster; ICN2 lives on shard 0.
	o.clusterShard = make([]int32, c)
	for cl := 0; cl < c; cl++ {
		o.clusterShard[cl] = int32(cl * s / c)
	}
	o.shards = make([]*simShard, s)
	for i := range o.shards {
		o.shards[i] = &simShard{id: i, o: o, eng: NewEngine(), out: make([][]xfer, s)}
		o.shards[i].eng.SetHandler(o.shards[i])
	}

	// Replicate New's master-stream split order bit for bit: per cluster
	// ICN1 then ECN1, then ICN2, then one stream per processor.
	master := rng.NewStream(opts.Seed)
	o.centers = make([]*Center, 2*c+1)
	o.icn1 = o.centers[:c]
	o.ecn1 = o.centers[c : 2*c]
	o.svcICN1 = make([]*serviceModel, c)
	o.svcECN1 = make([]*serviceModel, c)
	for i := 0; i < c; i++ {
		eng := o.shards[o.clusterShard[i]].eng
		o.icn1[i] = NewCenter(fmt.Sprintf("ICN1[%d]", i), eng, opts.ServiceDist, master.Split(), evCenterDone, int32(i))
		o.ecn1[i] = NewCenter(fmt.Sprintf("ECN1[%d]", i), eng, opts.ServiceDist, master.Split(), evCenterDone, int32(c+i))
		o.svcICN1[i] = newServiceModel(built.ICN1[i])
		o.svcECN1[i] = newServiceModel(built.ECN1[i])
	}
	o.icn2 = NewCenter("ICN2", o.shards[0].eng, opts.ServiceDist, master.Split(), evCenterDone, int32(2*c))
	o.centers[2*c] = o.icn2
	o.svcICN2 = newServiceModel(built.ICN2)

	n := o.lay.TotalNodes()
	o.procStreams = make([]*rng.Stream, n)
	rates := make([]float64, n)
	o.procShard = make([]int32, n)
	for p := 0; p < n; p++ {
		o.procStreams[p] = master.Split()
		cl := o.lay.ClusterOf(p)
		rates[p] = cfg.Clusters[cl].Lambda
		o.procShard[p] = o.clusterShard[cl]
	}
	o.sources = o.gen.Sources(rates)
	if o.scn = opts.Scenario; o.scn != nil {
		o.nodeDown = make([]bool, n)
		o.thinking = make([]bool, n)
		o.blocked = make([]bool, n)
		o.genDue = make([]float64, n)
		o.genStale = make([]int32, n)
		o.failPolicy = make([]scenario.Policy, len(o.centers))
		for _, p := range o.scn.InitialDownNodes {
			o.nodeDown[p] = true
		}
		for _, cid := range o.scn.InitialDownCenters {
			o.centers[cid].Fail(false)
		}
	}

	// Window width: the ICN2 mean service time at the nominal message
	// size. Any positive width is correct (the fixed point does not
	// depend on it); this one keeps the expected cross-shard traffic per
	// window near one hand-off.
	o.window = built.ICN2.MeanServiceTime(cfg.MessageBytes)
	if !(o.window > 0) || math.IsInf(o.window, 1) || math.IsNaN(o.window) {
		o.window = meanGenerationGap(cfg)
	}
	if o.window <= 0 {
		o.window = 1e-3
	}

	// Per-shard ranges, owned-centre lists, pools and snapshot buffers.
	for i, sh := range o.shards {
		sh.clusterLo, sh.clusterHi = c, 0
		for cl := 0; cl < c; cl++ {
			if int(o.clusterShard[cl]) != i {
				continue
			}
			if cl < sh.clusterLo {
				sh.clusterLo = cl
			}
			sh.clusterHi = cl + 1
		}
		sh.procLo, _ = o.lay.ClusterRange(sh.clusterLo)
		_, sh.procHi = o.lay.ClusterRange(sh.clusterHi - 1)
		for cl := sh.clusterLo; cl < sh.clusterHi; cl++ {
			sh.owned = append(sh.owned, o.icn1[cl], o.ecn1[cl])
		}
		if i == 0 {
			sh.owned = append(sh.owned, o.icn2)
		}
		for p := sh.procLo; p < sh.procHi; p++ {
			if !workload.Stateless(o.sources[p]) {
				sh.stateful = true
			}
		}
		np := sh.procHi - sh.procLo
		sh.msgs = make([]message, 0, np)
		sh.free = make([]int32, 0, np)
		sh.snap.centers = make([]CenterState, len(sh.owned))
		sh.snap.streams = make([]rng.Stream, np)
		if sh.stateful {
			sh.snap.sources = make([]workload.Source, np)
		}
		if o.scn != nil {
			sh.snap.nodeDown = make([]bool, np)
			sh.snap.thinking = make([]bool, np)
			sh.snap.blocked = make([]bool, np)
			sh.snap.genDue = make([]float64, np)
			sh.snap.genStale = make([]int32, np)
			sh.snap.policy = make([]scenario.Policy, len(sh.owned))
		}
	}
	o.cand = make([][]xfer, s)
	o.sel = make([]bool, s)
	o.idx = make([]int, s)
	o.pairHandoffs = make([][]int64, s)
	for i := range o.pairHandoffs {
		o.pairHandoffs[i] = make([]int64, s)
	}
	if opts.Profile != nil {
		o.profID = opts.Profile.Track(fmt.Sprintf("sim seed=%d shards=%d", opts.Seed, s))
	}
	return o, nil
}

// run drives the window loop; see Simulator.Run for the sequential
// counterpart whose observable behaviour this reproduces.
func (o *shardedSim) run() (*Result, error) {
	if o.opts.RecordSample {
		sampleCap := o.opts.MeasuredMessages
		if !math.IsInf(o.opts.MaxSimTime, 1) && sampleCap > 4096 {
			sampleCap = 4096
		}
		o.res.Sample = make([]float64, 0, sampleCap)
	}
	// Scenario events enter each owning shard's event set before any
	// traffic is armed, exactly like the sequential setup, so same-time
	// ties resolve timeline-first on every shard.
	if o.scn != nil {
		for i := range o.scn.Events {
			ev := &o.scn.Events[i]
			for s := range o.shards {
				if o.ownsEvent(s, ev) {
					o.shards[s].eng.ScheduleAt(ev.T, evScenario, int32(i))
				}
			}
		}
	}
	for p := 0; p < o.lay.TotalNodes(); p++ {
		if o.scn != nil && o.nodeDown[p] {
			continue
		}
		o.shards[o.procShard[p]].scheduleGeneration(p)
	}
	maxT := o.opts.MaxSimTime
	o.pool = NewShardPool(len(o.shards))
	defer o.pool.Close()
	stopped := false
	for {
		t := o.nextEventTime()
		if t > maxT {
			// Nothing left at or before the deadline: line every clock
			// up at maxT like the sequential horizon return does.
			if !math.IsInf(maxT, 1) {
				for _, sh := range o.shards {
					sh.eng.RunWindow(maxT, true)
				}
			}
			break
		}
		h := t + o.window
		inclusive := false
		if h >= maxT {
			// The sequential engine executes events at exactly maxTime,
			// so the final window is horizon-inclusive.
			h, inclusive = maxT, true
		}
		o.runOneWindow(h, inclusive)
		if stopped = o.commit(); stopped || inclusive {
			break
		}
	}
	return o.finish(), nil
}

// nextEventTime is the earliest pending event across all shards (+Inf if
// none), used to skip empty stretches between windows.
func (o *shardedSim) nextEventTime() float64 {
	t := math.Inf(1)
	for _, sh := range o.shards {
		if at := sh.eng.NextEventAt(); at < t {
			t = at
		}
	}
	return t
}

// centerShard returns the shard owning centre id cid (the shard of its
// cluster; ICN2 lives on shard 0).
func (o *shardedSim) centerShard(cid int32) int {
	c := int32(len(o.icn1))
	switch {
	case cid < c:
		return int(o.clusterShard[cid])
	case cid < 2*c:
		return int(o.clusterShard[cid-c])
	default:
		return 0
	}
}

// ownsEvent reports whether shard s owns any element of the compiled
// event: each owning shard schedules the event and applies its own
// subset, so an event spanning shards stays consistent without any
// cross-shard coordination at event time.
func (o *shardedSim) ownsEvent(s int, ev *scenario.SimEvent) bool {
	for _, p := range ev.Nodes {
		if int(o.procShard[p]) == s {
			return true
		}
	}
	for _, cid := range ev.Centers {
		if o.centerShard(cid) == s {
			return true
		}
	}
	return false
}

// runOneWindow advances every shard to the horizon and iterates to the
// mailbox fixed point: snapshot, run all shards with empty inboxes, then
// repeatedly merge outboxes into candidate inboxes and re-execute (from
// the snapshot) exactly the shards whose inbox changed.
func (o *shardedSim) runOneWindow(horizon float64, inclusive bool) {
	o.windows++
	for _, sh := range o.shards {
		sh.save()
		sh.inbox = sh.inbox[:0]
	}
	o.poolWindow(nil, "window", horizon, inclusive)
	for iter := 0; ; iter++ {
		if iter >= maxWindowIters {
			panic("sim: sharded window failed to converge (zero-latency cross-shard cycle?)")
		}
		any := false
		for r, sh := range o.shards {
			cand := o.cand[r][:0]
			for s, src := range o.shards {
				if s != r {
					cand = append(cand, src.out[r]...)
				}
			}
			slices.SortFunc(cand, cmpXfer)
			o.cand[r] = cand
			sh.dirty = !slices.Equal(cand, sh.inbox)
			any = any || sh.dirty
		}
		if !any {
			// Fixed point: the inboxes are final, so this is the committed
			// cross-shard hand-off volume for the window.
			for r, sh := range o.shards {
				o.handoffs += int64(len(sh.inbox))
				for i := range sh.inbox {
					o.pairHandoffs[sh.inbox[i].src][r]++
				}
			}
			return
		}
		for r, sh := range o.shards {
			o.sel[r] = sh.dirty
			if sh.dirty {
				sh.restore()
				o.reruns++
				sh.inbox, o.cand[r] = o.cand[r], sh.inbox
			}
		}
		o.poolWindow(o.sel, "rerun", horizon, inclusive)
	}
}

// poolWindow runs the selected shards' windows on the pool. With a trace
// profile attached, each shard's execution is timed and recorded as a
// Chrome-trace slice; time is recorded, never branched on, so the
// profiled run computes exactly what the unprofiled one does.
func (o *shardedSim) poolWindow(sel []bool, name string, horizon float64, inclusive bool) {
	p := o.opts.Profile
	if p == nil {
		o.pool.Run(sel, func(i int) { o.shards[i].runWindow(horizon, inclusive) })
		return
	}
	o.pool.Run(sel, func(i int) {
		t0 := time.Now()
		o.shards[i].runWindow(horizon, inclusive)
		p.Span(o.profID, i, name, t0, time.Since(t0))
	})
}

// commit replays the shards' merged delivery logs through the sequential
// measurement-counter logic. When the measured-message target is reached
// mid-window it cuts every shard back to the stopping instant and reports
// true.
func (o *shardedSim) commit() bool {
	warm := int64(o.opts.WarmupMessages)
	target := int64(o.opts.MeasuredMessages)
	for i := range o.idx {
		o.idx[i] = 0
	}
	for {
		best := -1
		var bt float64
		for s, sh := range o.shards {
			if o.idx[s] < len(sh.log) {
				if t := sh.log[o.idx[s]].at; best < 0 || t < bt {
					best, bt = s, t
				}
			}
		}
		if best < 0 {
			return false
		}
		d := o.shards[best].log[o.idx[best]]
		o.idx[best]++
		o.completed++
		if o.completed == warm {
			o.measureStart = d.at
		}
		if o.completed > warm && o.res.Measured < target {
			lat := d.at - d.born
			o.res.Latency.Add(lat)
			if o.opts.RecordSample {
				o.res.Sample = append(o.res.Sample, lat)
				if o.scn != nil {
					o.res.SampleTimes = append(o.res.SampleTimes, d.at)
				}
			}
			o.res.Measured++
			if o.res.Measured == target {
				o.cut(d.at)
				return true
			}
		}
	}
}

// cut rewinds the window so every shard's state reflects exactly the
// events the sequential run executes before stopping at tStop: re-run the
// window to tStop exclusive (injecting only the mailbox prefix below
// tStop), then step each shard's events at the stopping instant until its
// delivery count matches the replayed prefix.
func (o *shardedSim) cut(tStop float64) {
	for s, sh := range o.shards {
		n := o.idx[s]
		pre := n
		for pre > 0 && sh.log[pre-1].at == tStop {
			pre--
		}
		sh.cutPre, sh.cutNeed = pre, n
		sh.restore()
		o.rewinds++
	}
	p := o.opts.Profile
	if p == nil {
		o.pool.Run(nil, func(i int) { o.shards[i].runCut(tStop) })
		return
	}
	o.pool.Run(nil, func(i int) {
		t0 := time.Now()
		o.shards[i].runCut(tStop)
		p.Span(o.profID, i, "cut", t0, time.Since(t0))
	})
}

// finish assembles the Result exactly as the sequential Run does.
func (o *shardedSim) finish() *Result {
	if o.scn == nil && o.res.Measured < int64(o.opts.MeasuredMessages) {
		o.res.TimedOut = true
	}
	if o.res.TimedOut && len(o.res.Sample) < cap(o.res.Sample)/2 {
		o.res.Sample = append(make([]float64, 0, len(o.res.Sample)), o.res.Sample...)
	}
	o.res.SimTime = o.shards[0].eng.Now() // all clocks agree at every barrier
	window := o.res.SimTime - o.measureStart
	if window > 0 && o.res.Measured > 0 {
		o.res.Throughput = float64(o.res.Measured) / window
		o.res.EffectiveLambda = o.res.Throughput / float64(o.lay.TotalNodes())
	}
	for _, sh := range o.shards {
		o.res.Generated += sh.generated
		o.res.Dropped += sh.dropped
		o.res.Rerouted += sh.rerouted
	}
	for _, c := range o.centers {
		c.Flush()
		o.res.Centers = append(o.res.Centers, CenterStats{
			Name:            c.Name,
			Utilization:     c.Utilization(),
			MeanQueueLength: c.MeanQueueLength(),
			MaxQueueLength:  c.MaxQueueLength(),
			Served:          c.Served(),
		})
	}
	if o.opts.Stats != nil {
		st := telemetry.SimStats{
			Generated:    o.res.Generated,
			Dropped:      o.res.Dropped,
			Rerouted:     o.res.Rerouted,
			Shards:       int64(len(o.shards)),
			Windows:      o.windows,
			Reruns:       o.reruns,
			Rewinds:      o.rewinds,
			Handoffs:     o.handoffs,
			PairHandoffs: o.pairHandoffs,
			ShardEvents:  make([]int64, len(o.shards)),
		}
		for i, sh := range o.shards {
			ex := sh.eng.Executed()
			st.Events += ex
			st.ShardEvents[i] = ex
			if mp := int64(sh.eng.MaxPending()); mp > st.MaxPending {
				st.MaxPending = mp
			}
		}
		o.opts.Stats.Add(st)
	}
	return &o.res
}

// ---- per-shard execution ----

// runWindow executes one fixed-point iteration of the window on this
// shard: clear the window outputs, inject the current inbox, run to the
// horizon.
func (sh *simShard) runWindow(horizon float64, inclusive bool) {
	sh.log = sh.log[:0]
	for d := range sh.out {
		sh.out[d] = sh.out[d][:0]
	}
	for i := range sh.inbox {
		sh.eng.ScheduleAt(sh.inbox[i].at, evXferIn, int32(i))
	}
	sh.eng.RunWindow(horizon, inclusive)
}

// runCut is the stop-instant variant of runWindow: horizon-exclusive at
// tStop, then same-time steps until the shard has reproduced its share of
// the replayed delivery prefix.
func (sh *simShard) runCut(tStop float64) {
	sh.log = sh.log[:0]
	for d := range sh.out {
		sh.out[d] = sh.out[d][:0]
	}
	// The inbox is sorted by time; inject hand-offs up to and including
	// the stopping instant — the ones at exactly tStop sit in the heap for
	// the same-time steps below, in the order the full window ran them.
	for i := range sh.inbox {
		if sh.inbox[i].at > tStop {
			break
		}
		sh.eng.ScheduleAt(sh.inbox[i].at, evXferIn, int32(i))
	}
	sh.eng.RunWindow(tStop, false)
	if len(sh.log) != sh.cutPre {
		panic(fmt.Sprintf("sim: sharded stop cut diverged on shard %d: %d deliveries before t=%v, want %d", sh.id, len(sh.log), tStop, sh.cutPre))
	}
	for len(sh.log) < sh.cutNeed {
		if !sh.eng.StepSameTime(tStop) {
			panic(fmt.Sprintf("sim: sharded stop cut could not replay the stopping instant on shard %d", sh.id))
		}
	}
}

// save snapshots the shard's mutable state at the window boundary.
func (sh *simShard) save() {
	o := sh.o
	sh.eng.SaveState(&sh.snap.eng)
	for i, c := range sh.owned {
		c.SaveState(&sh.snap.centers[i])
	}
	for p := sh.procLo; p < sh.procHi; p++ {
		sh.snap.streams[p-sh.procLo] = *o.procStreams[p]
	}
	if sh.stateful {
		for p := sh.procLo; p < sh.procHi; p++ {
			sh.snap.sources[p-sh.procLo] = o.sources[p].Clone()
		}
	}
	sh.snap.msgs = append(sh.snap.msgs[:0], sh.msgs...)
	sh.snap.free = append(sh.snap.free[:0], sh.free...)
	sh.snap.generated = sh.generated
	if o.scn != nil {
		copy(sh.snap.nodeDown, o.nodeDown[sh.procLo:sh.procHi])
		copy(sh.snap.thinking, o.thinking[sh.procLo:sh.procHi])
		copy(sh.snap.blocked, o.blocked[sh.procLo:sh.procHi])
		copy(sh.snap.genDue, o.genDue[sh.procLo:sh.procHi])
		copy(sh.snap.genStale, o.genStale[sh.procLo:sh.procHi])
		for i, c := range sh.owned {
			sh.snap.policy[i] = o.failPolicy[c.ID()]
		}
		sh.snap.dropped = sh.dropped
		sh.snap.rerouted = sh.rerouted
	}
}

// restore rewinds the shard to the last save.
func (sh *simShard) restore() {
	o := sh.o
	sh.eng.RestoreState(&sh.snap.eng)
	for i, c := range sh.owned {
		c.RestoreState(&sh.snap.centers[i])
	}
	for p := sh.procLo; p < sh.procHi; p++ {
		*o.procStreams[p] = sh.snap.streams[p-sh.procLo]
	}
	if sh.stateful {
		for p := sh.procLo; p < sh.procHi; p++ {
			// Clone again so a later restore still has the pristine copy.
			o.sources[p] = sh.snap.sources[p-sh.procLo].Clone()
		}
	}
	sh.msgs = append(sh.msgs[:0], sh.snap.msgs...)
	sh.free = append(sh.free[:0], sh.snap.free...)
	sh.generated = sh.snap.generated
	if o.scn != nil {
		copy(o.nodeDown[sh.procLo:sh.procHi], sh.snap.nodeDown)
		copy(o.thinking[sh.procLo:sh.procHi], sh.snap.thinking)
		copy(o.blocked[sh.procLo:sh.procHi], sh.snap.blocked)
		copy(o.genDue[sh.procLo:sh.procHi], sh.snap.genDue)
		copy(o.genStale[sh.procLo:sh.procHi], sh.snap.genStale)
		for i, c := range sh.owned {
			o.failPolicy[c.ID()] = sh.snap.policy[i]
		}
		sh.dropped = sh.snap.dropped
		sh.rerouted = sh.snap.rerouted
	}
}

// Handle implements Handler: this shard's engine dispatch. It mirrors
// Simulator.Handle plus the injected-hand-off kind.
func (sh *simShard) Handle(kind EventKind, idx int32) {
	switch kind {
	case evGenerate:
		sh.generate(int(idx))
	case evCenterDone:
		c := sh.o.centers[idx]
		if sh.o.scn != nil && !c.TakeCompletion() {
			return // voided by a failure
		}
		sh.advance(c, c.CompleteService())
	case evXferIn:
		sh.applyXfer(sh.inbox[idx])
	case evScenario:
		sh.applyScenario(int(idx))
	default:
		panic(fmt.Sprintf("sim: unknown event kind %d", kind))
	}
}

func (sh *simShard) allocMsg() int32 {
	if n := len(sh.free); n > 0 {
		mi := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return mi
	}
	sh.msgs = append(sh.msgs, message{})
	return int32(len(sh.msgs) - 1)
}

// emit appends a hand-off to the mailbox for shard dst, stamped with the
// current clock and its emission index.
func (sh *simShard) emit(dst int32, kind xferKind, m message) {
	ob := sh.out[dst]
	sh.out[dst] = append(ob, xfer{at: sh.eng.Now(), src: int32(sh.id), seq: int32(len(ob)), kind: kind, m: m})
}

func (sh *simShard) scheduleGeneration(p int) {
	o := sh.o
	gap := o.sources[p].Next(o.procStreams[p])
	if o.scn != nil {
		gap = o.scn.Profile.Stretch(sh.eng.Now(), gap)
		o.thinking[p] = true
		o.genDue[p] = sh.eng.Now() + gap
	}
	sh.eng.Schedule(gap, evGenerate, int32(p))
}

// generate mirrors Simulator.generate. The message id is a shard-local
// count: it feeds only the (sequential-only) tracer, never results.
func (sh *simShard) generate(p int) {
	o := sh.o
	if o.scn != nil {
		if !o.thinking[p] || sh.eng.Now() != o.genDue[p] {
			if o.genStale[p] == 0 {
				panic(fmt.Sprintf("sim: processor %d got a generation event with no arrival due and no stale token", p))
			}
			o.genStale[p]--
			return
		}
		o.thinking[p] = false
	}
	sh.generated++
	st := o.procStreams[p]
	dest := o.gen.Pattern.Dest(st, o.lay, p)
	size := o.gen.Size.Sample(st)

	mi := sh.allocMsg()
	m := &sh.msgs[mi]
	*m = message{
		born:  sh.eng.Now(),
		id:    sh.generated,
		src:   int32(p),
		dst:   int32(dest),
		srcCl: int32(o.lay.ClusterOf(p)),
		dstCl: int32(o.lay.ClusterOf(dest)),
		size:  int32(size),
	}
	if o.opts.OpenLoop {
		sh.scheduleGeneration(p)
	} else if o.scn != nil {
		o.blocked[p] = true
	}
	// Both first hops (ICN1 and ECN1 of the source cluster) are owned by
	// this shard, so generation never crosses shards.
	if m.srcCl == m.dstCl {
		if o.scn != nil && o.failPolicy[m.srcCl] == scenario.PolicyReroute {
			m.viaRemote = true
			sh.rerouted++
			o.ecn1[m.srcCl].Submit(o.svcECN1[m.srcCl].mean(size), mi)
			return
		}
		o.icn1[m.srcCl].Submit(o.svcICN1[m.srcCl].mean(size), mi)
		return
	}
	o.ecn1[m.srcCl].Submit(o.svcECN1[m.srcCl].mean(size), mi)
}

// advance mirrors Simulator.advance; remote hops that leave the shard
// free their local slot and travel by value. Service means are computed
// by the receiving shard, which owns the target centre's model cache.
func (sh *simShard) advance(c *Center, mi int32) {
	o := sh.o
	m := &sh.msgs[mi]
	if m.srcCl == m.dstCl && !m.viaRemote {
		sh.complete(mi)
		return
	}
	m.hop++
	switch m.hop {
	case 1:
		if sh.id == 0 {
			o.icn2.Submit(o.svcICN2.mean(int(m.size)), mi)
			return
		}
		sh.emit(0, xfSubmitICN2, *m)
		sh.free = append(sh.free, mi)
	case 2:
		dst := o.clusterShard[m.dstCl]
		if int(dst) == sh.id {
			o.ecn1[m.dstCl].Submit(o.svcECN1[m.dstCl].mean(int(m.size)), mi)
			return
		}
		sh.emit(dst, xfSubmitECN1, *m)
		sh.free = append(sh.free, mi)
	default:
		sh.complete(mi)
	}
}

// complete mirrors Simulator.complete plus deliver: the delivery is
// logged for the coordinator's replay (global counters live there), and
// the closed-loop release of the source processor either happens locally
// or travels as a hand-off to the processor's shard.
func (sh *simShard) complete(mi int32) {
	o := sh.o
	m := &sh.msgs[mi]
	src, born := m.src, m.born
	sh.free = append(sh.free, mi)
	sh.log = append(sh.log, delivery{at: sh.eng.Now(), born: born})
	if !o.opts.OpenLoop {
		if srcSh := o.procShard[src]; int(srcSh) == sh.id {
			sh.release(int(src))
		} else {
			sh.emit(srcSh, xfDeliver, message{src: src})
		}
	}
}

// release unblocks a closed-loop source on this shard after its in-flight
// message delivered (or was dropped); a node that died in flight re-arms
// at repair instead.
func (sh *simShard) release(p int) {
	o := sh.o
	if o.scn != nil {
		o.blocked[p] = false
		if o.nodeDown[p] {
			return
		}
	}
	sh.scheduleGeneration(p)
}

// applyXfer consumes one injected hand-off at its stamped time.
func (sh *simShard) applyXfer(x xfer) {
	o := sh.o
	switch x.kind {
	case xfSubmitICN2:
		mi := sh.allocMsg()
		sh.msgs[mi] = x.m
		o.icn2.Submit(o.svcICN2.mean(int(x.m.size)), mi)
	case xfSubmitECN1:
		mi := sh.allocMsg()
		sh.msgs[mi] = x.m
		o.ecn1[x.m.dstCl].Submit(o.svcECN1[x.m.dstCl].mean(int(x.m.size)), mi)
	case xfDeliver:
		sh.release(int(x.m.src))
	default:
		panic(fmt.Sprintf("sim: unknown hand-off kind %d", x.kind))
	}
}

// ---- scenario application (sharded) ----
//
// These mirror Simulator.applyScenario and its helpers; each owning shard
// applies only the elements it owns, in the same fixed intra-event order,
// so the union across shards equals the sequential application. Validate
// rejects same-timestamp events, so a cross-shard release emitted by one
// event can never race another event at the same instant.

func (sh *simShard) applyScenario(i int) {
	o := sh.o
	ev := &o.scn.Events[i]
	if ev.Fail {
		for _, p := range ev.Nodes {
			if int(o.procShard[p]) == sh.id {
				sh.failNode(int(p))
			}
		}
		for _, cid := range ev.Centers {
			if o.centerShard(cid) == sh.id {
				sh.failCenter(cid, ev.Policy)
			}
		}
		return
	}
	for _, cid := range ev.Centers {
		if o.centerShard(cid) == sh.id {
			sh.repairCenter(cid)
		}
	}
	for _, p := range ev.Nodes {
		if int(o.procShard[p]) == sh.id {
			sh.repairNode(int(p))
		}
	}
}

func (sh *simShard) failNode(p int) {
	o := sh.o
	o.nodeDown[p] = true
	if o.thinking[p] {
		o.thinking[p] = false
		o.genStale[p]++
	}
}

func (sh *simShard) repairNode(p int) {
	o := sh.o
	o.nodeDown[p] = false
	if !o.thinking[p] && !o.blocked[p] {
		sh.scheduleGeneration(p)
	}
}

func (sh *simShard) failCenter(cid int32, pol scenario.Policy) {
	o := sh.o
	o.failPolicy[cid] = pol
	evict := pol == scenario.PolicyDrop || pol == scenario.PolicyReroute
	victims := o.centers[cid].Fail(evict)
	for _, mi := range victims {
		if pol == scenario.PolicyDrop {
			sh.dropMsg(mi)
		} else {
			sh.rerouteMsg(mi)
		}
	}
}

func (sh *simShard) repairCenter(cid int32) {
	o := sh.o
	o.failPolicy[cid] = scenario.PolicyNone
	o.centers[cid].Repair()
}

// dropMsg discards an evicted in-flight message; the closed-loop release
// of its source happens locally or travels as a hand-off, exactly like a
// delivery's release.
func (sh *simShard) dropMsg(mi int32) {
	o := sh.o
	sh.dropped++
	src := sh.msgs[mi].src
	sh.free = append(sh.free, mi)
	if !o.opts.OpenLoop {
		if srcSh := o.procShard[src]; int(srcSh) == sh.id {
			sh.release(int(src))
		} else {
			sh.emit(srcSh, xfDeliver, message{src: src})
		}
	}
}

// rerouteMsg re-submits an evicted local message over the remote path.
// Only icn1 failures carry the reroute policy, so the victim's source
// cluster — and its ECN1 — is always on this shard.
func (sh *simShard) rerouteMsg(mi int32) {
	o := sh.o
	m := &sh.msgs[mi]
	m.viaRemote = true
	m.hop = 0
	sh.rerouted++
	o.ecn1[m.srcCl].Submit(o.svcECN1[m.srcCl].mean(int(m.size)), mi)
}

// meanGenerationGap returns the expected time between two message
// generations anywhere in the system, 1/ΣNᵢλᵢ, or 0 when nothing
// generates.
func meanGenerationGap(cfg *core.Config) float64 {
	total := 0.0
	for _, cl := range cfg.Clusters {
		total += float64(cl.Nodes) * cl.Lambda
	}
	if total <= 0 {
		return 0
	}
	return 1 / total
}
