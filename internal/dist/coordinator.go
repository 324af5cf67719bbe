package dist

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"time"

	"hmscs/internal/sim"
	"hmscs/internal/telemetry"
)

// DefaultLeaseTTL is how long a granted unit may go unheartbeaten
// before the coordinator re-offers it.
const DefaultLeaseTTL = 10 * time.Second

// forgetTTLs is how many lease TTLs a worker may stay silent, holding no
// lease, before the registry forgets it. A forgotten worker that comes
// back is answered unknown-worker and registers again under a fresh id.
const forgetTTLs = 6

// specCacheSize bounds the idle spec registry: specs of live executors
// are always retained; up to this many recently-finished specs stay
// cached for resubmissions.
const specCacheSize = 64

// grainFraction is the share of a run's engine time its grant overhead
// may take: a worker is offered k units only when its per-grant overhead
// is at most grainFraction × k × the stage's measured engine time per
// unit.
const grainFraction = 0.1

// bootstrapNS is the prior of each measured worker cost (per-grant
// overhead, spec start-up) until estimateWindow grants have measured it.
const bootstrapNS = int64(time.Millisecond)

// estimateWindow is how many recent grants a worker's cost estimates
// remember.
const estimateWindow = 4

// outcome resolves one offered unit. Exactly one of three shapes:
// a result (res, stats), an execution error (err), or revert — the
// unit handed back to its executor's local slots (the coordinator
// closed, the unit's lease expired while a local slot waited for it, or
// the worker's result did not fit the unit).
type outcome struct {
	res    *sim.Result
	stats  telemetry.SimStats
	err    error
	revert bool
}

// offer is one unit an executor placed remotely. The resolved channel
// (capacity 1) receives at most one outcome: the lease table guarantees
// single resolution — a unit is either held by exactly one live lease,
// queued for re-offer, or taken back by its executor, never two at once.
// queued and waiting are guarded by the Coordinator's mutex.
type offer struct {
	hash     string
	unit     WireUnit
	centers  int             // Centers rows a fitting result holds
	slices   int             // slice pairs it holds: its window's slice count, 0 when stationary
	done     <-chan struct{} // executor context; cancelled offers are dropped
	resolved chan outcome
	// queued marks an offer in the requeue, held by no lease; waiting
	// that a local slot has reached the unit and waits for its outcome,
	// so a unit that loses its lease reverts to that slot instead.
	queued, waiting bool
}

// fits reports whether the plausible result r has the shape of the
// offer's unit: a row per centre and a slice pair per slice. A scenario
// run measures every delivery of its horizon and bins each one, so its
// slice counts, none negative, sum to Measured.
func (off *offer) fits(r *sim.Result) bool {
	if len(r.Centers) != off.centers || len(r.SliceSums) != off.slices || len(r.SliceCounts) != off.slices {
		return false
	}
	if off.slices == 0 {
		return true
	}
	left := r.Measured
	for _, c := range r.SliceCounts {
		if c < 0 || c > left {
			return false
		}
		left -= c
	}
	return left == 0
}

// lease is one granted run awaiting completion by the worker whose token
// it holds. resolved[i] records that offs[i] has had its outcome; left
// counts the units still open. busyNS and setupNS sum what the worker
// reported, and cold says the worker had not run the spec before.
type lease struct {
	id       string
	offs     []*offer
	resolved []bool
	left     int
	token    string
	granted  time.Time
	deadline time.Time
	cold     bool
	busyNS   int64
	setupNS  int64
}

// workerState tracks one registered worker; the registry keys it by its
// token, and id is the public name GET /dist/workers shows. overhead and
// startup are its measured costs per grant and per new spec, and specs
// the hashes it was last granted, newest last.
type workerState struct {
	id        string
	name      string
	procs     int
	lastSeen  time.Time
	unitsDone int64
	rejected  int64
	busyNS    int64
	overhead  estimate
	startup   estimate
	specs     []string
}

// estimate is a cost measured over a worker's recent grants: the least
// of its last estimateWindow samples. It starts as estimateWindow copies
// of bootstrapNS, so neither a worker's first grants (a cold connection,
// a busy host) nor one slow grant among faster ones (a GC pause) prices
// it out for good: a worker priced out gets no grant to be re-measured
// by.
type estimate struct {
	samples [estimateWindow]int64
	next    int
}

func newEstimate() estimate {
	var e estimate
	for i := range e.samples {
		e.samples[i] = bootstrapNS
	}
	return e
}

func (e *estimate) add(ns int64) {
	e.samples[e.next] = max(ns, 0)
	e.next = (e.next + 1) % estimateWindow
}

func (e *estimate) value() int64 { return slices.Min(e.samples[:]) }

// ran reports whether the worker was recently granted units of hash,
// so it holds the spec's program.
func (w *workerState) ran(hash string) bool {
	for _, h := range w.specs {
		if h == hash {
			return true
		}
	}
	return false
}

// grantCost is what one grant of spec hash costs the worker beyond the
// engine time of its units: its measured per-grant overhead, plus its
// spec start-up when it has not run the spec.
func (w *workerState) grantCost(hash string) int64 {
	cost := w.overhead.value()
	if !w.ran(hash) {
		cost += w.startup.value()
	}
	return cost
}

// Coordinator owns the worker registry, the spec store and the lease
// table. One lives inside each serve.Server; executors register their
// fixed stages with it as sources of runs, and the HTTP handlers in
// this package drive the worker side.
type Coordinator struct {
	ttl time.Duration

	mu      sync.Mutex
	workers map[string]*workerState // by token
	specs   map[string]*specEntry
	idle    []string // finished spec hashes, oldest first (cache eviction order)
	leases  map[string]*lease
	requeue []*offer
	sources []*stageRun
	// wake is closed (and replaced) when there may be new work for a
	// polling worker: a requeued unit or a stage's fresh measurement.
	wake   chan struct{}
	closed bool
	seq    uint64 // public worker ids
	// forgottenBusyNS keeps forgotten workers' busy time in the
	// busy-seconds counter, which must never fall.
	forgottenBusyNS int64

	done chan struct{}

	unitsLeased     *telemetry.Counter
	unitsCompleted  *telemetry.Counter
	unitsFailed     *telemetry.Counter
	unitsRejected   *telemetry.Counter
	unitsReassigned *telemetry.Counter
	unitsDuplicate  *telemetry.Counter
	unitsLocal      *telemetry.Counter
}

type specEntry struct {
	data []byte
	refs int
}

// NewCoordinator starts a coordinator with the given lease TTL
// (0 = DefaultLeaseTTL). Close must be called to stop its sweeper.
func NewCoordinator(ttl time.Duration) *Coordinator {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	c := &Coordinator{
		ttl:             ttl,
		workers:         make(map[string]*workerState),
		specs:           make(map[string]*specEntry),
		leases:          make(map[string]*lease),
		wake:            make(chan struct{}),
		done:            make(chan struct{}),
		unitsLeased:     &telemetry.Counter{},
		unitsCompleted:  &telemetry.Counter{},
		unitsFailed:     &telemetry.Counter{},
		unitsRejected:   &telemetry.Counter{},
		unitsReassigned: &telemetry.Counter{},
		unitsDuplicate:  &telemetry.Counter{},
		unitsLocal:      &telemetry.Counter{},
	}
	go c.sweep()
	return c
}

// Stats is the coordinator's unit-accounting snapshot.
type Stats struct {
	Leased     int64 `json:"units_leased"`
	Completed  int64 `json:"units_completed"`
	Failed     int64 `json:"units_failed"`
	Rejected   int64 `json:"units_rejected"`
	Reassigned int64 `json:"units_reassigned"`
	Duplicate  int64 `json:"units_duplicate"`
	Local      int64 `json:"units_local"`
}

// Stats snapshots the unit counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Leased:     c.unitsLeased.Value(),
		Completed:  c.unitsCompleted.Value(),
		Failed:     c.unitsFailed.Value(),
		Rejected:   c.unitsRejected.Value(),
		Reassigned: c.unitsReassigned.Value(),
		Duplicate:  c.unitsDuplicate.Value(),
		Local:      c.unitsLocal.Value(),
	}
}

// RegisterMetrics declares the hmscs_dist_* families on the registry.
// Per-worker detail intentionally stays on GET /dist/workers — the
// registry is label-free, so the scrape surface carries aggregates.
func (c *Coordinator) RegisterMetrics(r *telemetry.Registry) {
	r.GaugeFunc("hmscs_dist_workers_attached", "Workers registered with the coordinator.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(len(c.workers)) })
	r.GaugeFunc("hmscs_dist_workers_live", "Registered workers heard from within one lease TTL.",
		func() float64 { return float64(c.Live()) })
	counter := func(name, help string, src *telemetry.Counter) {
		r.CounterFunc(name, help, func() float64 { return float64(src.Value()) })
	}
	counter("hmscs_dist_units_leased_total", "Units granted to workers, including re-grants of reassigned units.", c.unitsLeased)
	counter("hmscs_dist_units_completed_total", "Units whose results workers delivered.", c.unitsCompleted)
	counter("hmscs_dist_units_failed_total", "Units workers reported a simulation error for.", c.unitsFailed)
	counter("hmscs_dist_units_rejected_total", "Units whose delivered result did not fit the unit and ran locally instead.", c.unitsRejected)
	counter("hmscs_dist_units_reassigned_total", "Leased units whose lease expired (missed heartbeats) before they resolved.", c.unitsReassigned)
	counter("hmscs_dist_units_duplicate_total", "Stale unit verdicts dropped (the unit was already resolved or reassigned).", c.unitsDuplicate)
	counter("hmscs_dist_units_local_total", "Units of distributed jobs' fixed stages executed locally.", c.unitsLocal)
	r.GaugeFunc("hmscs_dist_units_leased", "Units currently held under live leases.",
		func() float64 { return float64(c.LeasedUnits()) })
	r.CounterFunc("hmscs_dist_worker_busy_seconds_total", "Summed wall time workers reported executing units.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			ns := c.forgottenBusyNS
			for _, w := range c.workers {
				ns += w.busyNS
			}
			return float64(ns) / 1e9
		})
}

// Close stops the sweeper. Outstanding offers resolve as reverts so no
// executor blocks on a dead coordinator. Closing again does nothing.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.done)
	pending := c.requeue
	c.requeue = nil
	for id, l := range c.leases {
		delete(c.leases, id)
		for i, off := range l.offs {
			if !l.resolved[i] {
				pending = append(pending, off)
			}
		}
	}
	for _, off := range pending {
		off.queued = false
		off.resolve(outcome{revert: true})
	}
	c.sources = nil
	c.mu.Unlock()
}

// resolve delivers the offer's single outcome. The capacity-1 channel
// plus the single-resolution invariant make this never block; the
// default arm is a belt-and-braces guard against a protocol bug turning
// into a stuck sweeper.
func (o *offer) resolve(out outcome) {
	select {
	case o.resolved <- out:
	default:
	}
}

// signalLocked wakes every polling worker to look for work again.
func (c *Coordinator) signalLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// signal is signalLocked for a caller not holding the lock.
func (c *Coordinator) signal() {
	c.mu.Lock()
	c.signalLocked()
	c.mu.Unlock()
}

// secret returns 128 random bits in hex. Worker tokens and lease ids are
// secrets because /dist/* shares its listener with /jobs and
// GET /dist/workers lists the workers: a counter would let any caller
// quote a worker's lease and resolve its unit.
func secret() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("dist: no randomness for a credential: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Register attaches a worker and returns its public id, its token and
// the protocol timings.
func (c *Coordinator) Register(name string, procs int) registerResponse {
	if procs < 1 {
		procs = 1
	}
	token := secret()
	c.mu.Lock()
	c.seq++
	id := fmt.Sprintf("w%d", c.seq)
	c.workers[token] = &workerState{id: id, name: name, procs: procs, lastSeen: time.Now(),
		overhead: newEstimate(), startup: newEstimate()}
	c.mu.Unlock()
	return registerResponse{
		Worker:     id,
		Token:      token,
		LeaseTTLMS: c.ttl.Milliseconds(),
		PollMS:     (c.ttl / 3).Milliseconds(),
	}
}

// touch refreshes the liveness of the worker holding token; reports
// whether it is known.
func (c *Coordinator) touch(token string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[token]
	if w == nil {
		return false
	}
	w.lastSeen = time.Now()
	return true
}

// Live counts workers heard from within one lease TTL.
func (c *Coordinator) Live() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveLocked()
}

func (c *Coordinator) liveLocked() int {
	cutoff := time.Now().Add(-c.ttl)
	n := 0
	for _, w := range c.workers {
		if w.lastSeen.After(cutoff) {
			n++
		}
	}
	return n
}

// capacityLocked sums the execution slots of live workers.
func (c *Coordinator) capacityLocked() int {
	cutoff := time.Now().Add(-c.ttl)
	n := 0
	for _, w := range c.workers {
		if w.lastSeen.After(cutoff) {
			n += w.procs
		}
	}
	return n
}

// Workers snapshots the registry for GET /dist/workers and /healthz.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	leased := make(map[string]int)
	for _, l := range c.leases {
		leased[l.token] += l.left
	}
	cutoff := time.Now().Add(-c.ttl)
	out := make([]WorkerInfo, 0, len(c.workers))
	for token, w := range c.workers {
		out = append(out, WorkerInfo{
			ID:            w.id,
			Name:          w.name,
			Procs:         w.procs,
			Live:          w.lastSeen.After(cutoff),
			Leased:        leased[token],
			UnitsDone:     w.unitsDone,
			UnitsRejected: w.rejected,
			BusySeconds:   float64(w.busyNS) / 1e9,
			IdleSeconds:   time.Since(w.lastSeen).Seconds(),
		})
	}
	return out
}

// LeasedUnits reports how many units are currently out under lease.
func (c *Coordinator) LeasedUnits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, l := range c.leases {
		n += l.left
	}
	return n
}

// registerSpec pins the spec bytes under its hash for worker fetches.
func (c *Coordinator) registerSpec(hash string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.specs[hash]; e != nil {
		e.refs++
		c.dropIdleLocked(hash)
		return
	}
	c.specs[hash] = &specEntry{data: data, refs: 1}
}

// releaseSpec drops one reference; unreferenced specs stay cached for
// resubmissions, oldest evicted past specCacheSize.
func (c *Coordinator) releaseSpec(hash string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.specs[hash]
	if e == nil {
		return
	}
	if e.refs--; e.refs > 0 {
		return
	}
	c.idle = append(c.idle, hash)
	for len(c.idle) > specCacheSize {
		delete(c.specs, c.idle[0])
		c.idle = c.idle[1:]
	}
}

func (c *Coordinator) dropIdleLocked(hash string) {
	for i, h := range c.idle {
		if h == hash {
			c.idle = append(c.idle[:i], c.idle[i+1:]...)
			return
		}
	}
}

// Spec returns the registered spec bytes (GET /dist/specs/{hash}).
func (c *Coordinator) Spec(hash string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.specs[hash]
	if e == nil {
		return nil, false
	}
	return e.data, true
}

// addSource registers a fixed stage whose tail workers may take runs
// of.
func (c *Coordinator) addSource(s *stageRun) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.sources = append(c.sources, s)
	}
}

// dropSources unregisters the executor's stages.
func (c *Coordinator) dropSources(e *Executor) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sources = slices.DeleteFunc(c.sources, func(s *stageRun) bool { return s.e == e })
}

// Lease grants the worker holding token one run of up to max units,
// long-polling up to wait, or until ctx ends, for one. Units whose lease
// expired are granted before fresh runs so a reassigned unit never
// starves behind new work; a fresh run comes from the tail of a
// registered stage, sized by the stage's rule (stageRun.take).
func (c *Coordinator) Lease(ctx context.Context, token string, max int, wait time.Duration) ([]Lease, bool) {
	if max < 1 {
		max = 1
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		c.mu.Lock()
		w := c.workers[token]
		if w == nil {
			c.mu.Unlock()
			return nil, false
		}
		w.lastSeen = time.Now()
		g, ok := c.grantLocked(token, w, max)
		wake := c.wake
		c.mu.Unlock()
		if ok {
			c.unitsLeased.Add(int64(len(g.Units)))
			return []Lease{g}, true
		}
		select {
		case <-wake:
		case <-deadline.C:
			return nil, true
		case <-ctx.Done():
			return nil, true
		case <-c.done:
			return nil, true
		}
	}
}

// grantLocked leases the worker the next run: requeued units of one
// spec, else the first registered stage's tail run that the worker's
// costs amortise. Stages with nothing left to offer are dropped.
func (c *Coordinator) grantLocked(token string, w *workerState, max int) (Lease, bool) {
	if c.closed {
		return Lease{}, false
	}
	offs := c.takeRequeuedLocked(max)
	if offs == nil && len(c.sources) > 0 {
		lanes := c.capacityLocked()
		kept := c.sources[:0]
		for _, s := range c.sources {
			if offs == nil {
				var spent bool
				if offs, spent = s.take(w.grantCost(s.e.hash), lanes, max); spent {
					continue
				}
			}
			kept = append(kept, s)
		}
		clear(c.sources[len(kept):])
		c.sources = kept
	}
	if offs == nil {
		return Lease{}, false
	}
	hash := offs[0].hash
	now := time.Now()
	l := &lease{
		id:       secret(),
		offs:     offs,
		resolved: make([]bool, len(offs)),
		left:     len(offs),
		token:    token,
		granted:  now,
		deadline: now.Add(c.ttl),
		cold:     !w.ran(hash),
	}
	c.leases[l.id] = l
	if l.cold {
		w.specs = append(w.specs, hash)
		if len(w.specs) > workerSpecCache {
			w.specs = w.specs[1:]
		}
	}
	g := Lease{ID: l.id, Spec: hash, Units: make([]WireUnit, len(offs))}
	for i, off := range offs {
		g.Units[i] = off.unit
	}
	return g, true
}

// takeRequeuedLocked pops up to max requeued units of the first live
// offer's spec; cancelled offers met on the way are dropped.
func (c *Coordinator) takeRequeuedLocked(max int) []*offer {
	var offs []*offer
	kept := c.requeue[:0]
	for _, off := range c.requeue {
		switch {
		case isDone(off.done):
			off.queued = false
		case len(offs) < max && (offs == nil || off.hash == offs[0].hash):
			off.queued = false
			offs = append(offs, off)
		default:
			kept = append(kept, off)
		}
	}
	clear(c.requeue[len(kept):])
	c.requeue = kept
	return offs
}

func isDone(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// requeueLocked hands a unit that lost its lease back for re-offer: to
// its local slot when one already waits for it, else to the requeue,
// where the next poll or the slot reaching it takes it. It reports
// whether the unit was queued.
func (c *Coordinator) requeueLocked(off *offer) bool {
	switch {
	case isDone(off.done):
		return false
	case off.waiting:
		off.resolve(outcome{revert: true})
		return false
	}
	off.queued = true
	c.requeue = append(c.requeue, off)
	return true
}

// reclaim is a local slot reaching a unit it placed remotely: a unit in
// the requeue, held by no worker, comes back to the slot (true);
// otherwise the slot waits for the unit's outcome.
func (c *Coordinator) reclaim(off *offer) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !off.queued {
		off.waiting = true
		return false
	}
	off.queued = false
	c.requeue = slices.DeleteFunc(c.requeue, func(o *offer) bool { return o == off })
	return true
}

// abandon returns the units of grants whose poller left before receiving
// them to the requeue, rather than leave them to expire.
func (c *Coordinator) abandon(grants []Lease) {
	c.mu.Lock()
	defer c.mu.Unlock()
	queued := false
	for _, g := range grants {
		l := c.leases[g.ID]
		if l == nil {
			continue
		}
		delete(c.leases, g.ID)
		for i, off := range l.offs {
			if !l.resolved[i] && c.requeueLocked(off) {
				queued = true
			}
		}
	}
	if queued {
		c.signalLocked()
	}
}

// verdict is one delivered unit outcome, checked against the unit it
// answers once the lease is found.
type verdict struct {
	unit   int
	res    *sim.Result
	stats  telemetry.SimStats
	err    string // the worker's execution error
	misfit bool   // the result cannot be the unit's
}

// Complete resolves the lease units the completion answers, for the
// worker whose token req quotes; a request without a registered token
// resolves nothing. A completion for an unknown lease is stale, not an
// error: the lease expired and its units were reassigned, or this is a
// duplicate delivery. So is one from a worker that does not hold the
// lease; it credits no worker. Each unit resolves at most once, under
// the lease table's lock: a verdict for a unit already resolved is
// dropped stale on its own. A result that does not fit its unit (its
// centre rows, slice bins, counts or values) reverts the unit to local
// execution and is counted against the worker.
func (c *Coordinator) Complete(req completeRequest) string {
	// Decode and check every result before taking the lock.
	verdicts := make([]verdict, len(req.Results))
	for i, u := range req.Results {
		v := verdict{unit: u.Unit, err: u.Error}
		switch {
		case u.Error != "":
		case u.Result == nil:
			v.err = "delivered neither result nor error"
		default:
			v.res, v.misfit = u.Result, !plausible(u.Result)
			if u.Stats != nil {
				v.stats = *u.Stats
			}
		}
		verdicts[i] = v
	}

	now := time.Now()
	c.mu.Lock()
	w := c.workers[req.Token]
	if w == nil {
		c.mu.Unlock()
		return statusUnknownWorker
	}
	w.lastSeen = now
	l := c.leases[req.Lease]
	if l == nil || l.token != req.Token {
		c.mu.Unlock()
		c.unitsDuplicate.Add(int64(len(verdicts)))
		return statusStale
	}
	var completed, failed, rejected, stale int64
	for _, v := range verdicts {
		if v.unit < 0 || v.unit >= len(l.offs) || l.resolved[v.unit] {
			stale++
			continue
		}
		off := l.offs[v.unit]
		l.resolved[v.unit] = true
		l.left--
		switch {
		case v.err != "":
			failed++
			w.unitsDone++
			off.resolve(outcome{err: fmt.Errorf("dist: worker %s: unit %s[%d,%d]: %s",
				w.id, off.unit.Stage, off.unit.Point, off.unit.Rep, v.err)})
		case v.misfit || !off.fits(v.res):
			rejected++
			w.rejected++
			off.resolve(outcome{revert: true})
		default:
			completed++
			w.unitsDone++
			off.resolve(outcome{res: v.res, stats: v.stats})
		}
	}
	w.busyNS += max(req.BusyNS, 0)
	l.busyNS += req.BusyNS
	l.setupNS += req.SetupNS
	if l.left == 0 {
		delete(c.leases, l.id)
		w.overhead.add(now.Sub(l.granted).Nanoseconds() - l.busyNS - l.setupNS)
		if l.cold {
			w.startup.add(l.setupNS)
		}
	}
	c.mu.Unlock()
	c.unitsCompleted.Add(completed)
	c.unitsFailed.Add(failed)
	c.unitsRejected.Add(rejected)
	c.unitsDuplicate.Add(stale)
	if completed+failed+rejected == 0 {
		return statusStale
	}
	return statusOK
}

// Heartbeat extends every lease the worker holding token holds and
// refreshes its liveness.
func (c *Coordinator) Heartbeat(token string) string {
	if !c.touch(token) {
		return statusUnknownWorker
	}
	c.mu.Lock()
	deadline := time.Now().Add(c.ttl)
	for _, l := range c.leases {
		if l.token == token {
			l.deadline = deadline
		}
	}
	c.mu.Unlock()
	return statusOK
}

// sweep expires overdue leases, re-offering their unresolved units
// (requeueLocked), drops cancelled offers from the requeue, and forgets
// workers silent for forgetTTLs lease TTLs, so the registry holds the
// fleet, not every registration ever made.
func (c *Coordinator) sweep() {
	tick := time.NewTicker(c.ttl / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-tick.C:
		}
		now := time.Now()
		c.mu.Lock()
		var expired int64
		queued := false
		for id, l := range c.leases {
			if !now.After(l.deadline) {
				continue
			}
			delete(c.leases, id)
			expired += int64(l.left)
			for i, off := range l.offs {
				if !l.resolved[i] && c.requeueLocked(off) {
					queued = true
				}
			}
		}
		c.forgetSilentLocked(now)
		// Cancelled offers sitting in the queue are dropped eagerly so a
		// long queue from an aborted job does not shadow fresh work.
		c.requeue = slices.DeleteFunc(c.requeue, func(off *offer) bool {
			if isDone(off.done) {
				off.queued = false
				return true
			}
			return false
		})
		if queued {
			c.signalLocked()
		}
		c.mu.Unlock()
		c.unitsReassigned.Add(expired)
	}
}

// forgetSilentLocked drops the workers not heard from for forgetTTLs lease
// TTLs that hold no lease. Worker ids stay unique: seq never rewinds.
func (c *Coordinator) forgetSilentLocked(now time.Time) {
	cutoff := now.Add(-forgetTTLs * c.ttl)
	var leased map[string]bool
	for token, w := range c.workers {
		if !w.lastSeen.Before(cutoff) {
			continue
		}
		if leased == nil {
			leased = make(map[string]bool, len(c.leases))
			for _, l := range c.leases {
				leased[l.token] = true
			}
		}
		if !leased[token] {
			c.forgottenBusyNS += w.busyNS
			delete(c.workers, token)
		}
	}
}
