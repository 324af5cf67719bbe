package dist

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
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

// outcome resolves one offered unit. Exactly one of three shapes:
// a result (res, stats), an execution error (err), or revert — the
// coordinator handing the unit back because no worker can run it.
type outcome struct {
	res    *sim.Result
	stats  telemetry.SimStats
	err    error
	revert bool
}

// offer is one unit an executor wants run remotely. The resolved
// channel (capacity 1) receives exactly one outcome: the lease table
// guarantees single resolution — a unit is either pending grant, held
// by exactly one live lease, or queued for re-offer, never two at once.
type offer struct {
	hash     string
	unit     WireUnit
	done     <-chan struct{} // executor context; cancelled offers are dropped
	resolved chan outcome
}

// lease is one granted unit awaiting completion by the worker whose
// token it holds.
type lease struct {
	id       string
	off      *offer
	token    string
	deadline time.Time
}

// workerState tracks one registered worker; the registry keys it by its
// token, and id is the public name GET /dist/workers shows.
type workerState struct {
	id        string
	name      string
	procs     int
	lastSeen  time.Time
	unitsDone int64
	busyNS    int64
}

// Coordinator owns the worker registry, the spec store and the lease
// table. One lives inside each serve.Server; executors offer units into
// it and the HTTP handlers in this package drive the worker side.
type Coordinator struct {
	ttl time.Duration

	mu      sync.Mutex
	workers map[string]*workerState // by token
	specs   map[string]*specEntry
	idle    []string // finished spec hashes, oldest first (cache eviction order)
	leases  map[string]*lease
	requeue []*offer
	seq     uint64 // public worker ids
	// forgottenBusyNS keeps forgotten workers' busy time in the
	// busy-seconds counter, which must never fall.
	forgottenBusyNS int64

	offers chan *offer
	kick   chan struct{} // pulses when requeue gains an entry
	done   chan struct{}

	unitsLeased     *telemetry.Counter
	unitsCompleted  *telemetry.Counter
	unitsFailed     *telemetry.Counter
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
		offers:          make(chan *offer),
		kick:            make(chan struct{}, 1),
		done:            make(chan struct{}),
		unitsLeased:     &telemetry.Counter{},
		unitsCompleted:  &telemetry.Counter{},
		unitsFailed:     &telemetry.Counter{},
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
	counter("hmscs_dist_units_reassigned_total", "Leases that expired (missed heartbeats) and were re-offered.", c.unitsReassigned)
	counter("hmscs_dist_units_duplicate_total", "Stale completions dropped (the lease was already resolved or reassigned).", c.unitsDuplicate)
	counter("hmscs_dist_units_local_total", "Units of distributed jobs executed locally (no idle worker, or reverted).", c.unitsLocal)
	r.GaugeFunc("hmscs_dist_units_leased", "Units currently held under live leases.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(len(c.leases)) })
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
// executor blocks on a dead coordinator.
func (c *Coordinator) Close() {
	close(c.done)
	c.mu.Lock()
	pending := c.requeue
	c.requeue = nil
	for id, l := range c.leases {
		delete(c.leases, id)
		pending = append(pending, l.off)
	}
	c.mu.Unlock()
	for _, off := range pending {
		off.resolve(outcome{revert: true})
	}
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
	c.workers[token] = &workerState{id: id, name: name, procs: procs, lastSeen: time.Now()}
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

// Capacity sums the execution slots of live workers.
func (c *Coordinator) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
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
		leased[l.token]++
	}
	cutoff := time.Now().Add(-c.ttl)
	out := make([]WorkerInfo, 0, len(c.workers))
	for token, w := range c.workers {
		out = append(out, WorkerInfo{
			ID:          w.id,
			Name:        w.name,
			Procs:       w.procs,
			Live:        w.lastSeen.After(cutoff),
			Leased:      leased[token],
			UnitsDone:   w.unitsDone,
			BusySeconds: float64(w.busyNS) / 1e9,
			IdleSeconds: time.Since(w.lastSeen).Seconds(),
		})
	}
	return out
}

// LeasedUnits reports how many units are currently out under lease.
func (c *Coordinator) LeasedUnits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.leases)
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

// Lease grants up to max units to the worker holding token,
// long-polling up to wait for the first. Expired-and-requeued units are
// granted before fresh offers so a reassigned unit never starves behind
// new work.
func (c *Coordinator) Lease(token string, max int, wait time.Duration) ([]Lease, bool) {
	if !c.touch(token) {
		return nil, false
	}
	if max < 1 {
		max = 1
	}
	var grants []Lease
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for len(grants) < max {
		if off := c.takeRequeued(); off != nil {
			if g, ok := c.grant(token, off); ok {
				grants = append(grants, g)
			}
			continue
		}
		if len(grants) > 0 {
			// Already have work: only drain what is immediately available.
			select {
			case off := <-c.offers:
				if g, ok := c.grant(token, off); ok {
					grants = append(grants, g)
				}
			default:
				return grants, true
			}
			continue
		}
		select {
		case off := <-c.offers:
			if g, ok := c.grant(token, off); ok {
				grants = append(grants, g)
			}
		case <-c.kick:
			// requeue gained entries; loop back to takeRequeued.
		case <-deadline.C:
			return grants, true
		case <-c.done:
			return grants, true
		}
	}
	return grants, true
}

func (c *Coordinator) takeRequeued() *offer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.requeue) == 0 {
		return nil
	}
	off := c.requeue[0]
	c.requeue = c.requeue[1:]
	return off
}

// grant creates a lease for the offer; cancelled offers are dropped.
func (c *Coordinator) grant(token string, off *offer) (Lease, bool) {
	select {
	case <-off.done:
		return Lease{}, false // the executor is gone; drop silently
	default:
	}
	id := secret()
	c.mu.Lock()
	c.leases[id] = &lease{id: id, off: off, token: token, deadline: time.Now().Add(c.ttl)}
	c.mu.Unlock()
	c.unitsLeased.Inc()
	return Lease{ID: id, Spec: off.hash, Unit: off.unit}, true
}

// Complete resolves a lease with the verdict of the worker whose token
// req quotes; a request without a registered token resolves nothing. A
// completion for an unknown lease is stale, not an error: the lease
// expired and its unit was reassigned, or this is a duplicate delivery.
// So is one from a worker that does not hold the lease; it credits no
// worker.
func (c *Coordinator) Complete(req completeRequest) string {
	if !c.touch(req.Token) {
		return statusUnknownWorker
	}
	c.mu.Lock()
	l, ok := c.leases[req.Lease]
	ok = ok && l.token == req.Token
	if ok {
		delete(c.leases, req.Lease)
	}
	w := c.workers[req.Token]
	if w != nil && ok {
		w.unitsDone++
		if req.BusyNS > 0 {
			w.busyNS += req.BusyNS
		}
	}
	worker := w.id
	c.mu.Unlock()
	if !ok {
		c.unitsDuplicate.Inc()
		return statusStale
	}
	switch {
	case req.Error != "":
		c.unitsFailed.Inc()
		l.off.resolve(outcome{err: fmt.Errorf("dist: worker %s: unit %s[%d,%d]: %s",
			worker, l.off.unit.Stage, l.off.unit.Point, l.off.unit.Rep, req.Error)})
	case req.Result == nil:
		c.unitsFailed.Inc()
		l.off.resolve(outcome{err: fmt.Errorf("dist: worker %s delivered neither result nor error for lease %s", worker, req.Lease)})
	default:
		c.unitsCompleted.Inc()
		var st telemetry.SimStats
		if req.Stats != nil {
			st = *req.Stats
		}
		l.off.resolve(outcome{res: req.Result.decode(), stats: st})
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

// sweep expires overdue leases, re-offering their units — or, when no
// live worker remains to re-offer to, reverting them to their executors
// so a job never hangs on a dead fleet — and forgets workers silent for
// forgetTTLs lease TTLs, so the registry holds the fleet, not every
// registration ever made.
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
		var revert []*offer
		c.mu.Lock()
		expired := 0
		for id, l := range c.leases {
			if now.After(l.deadline) {
				delete(c.leases, id)
				expired++
				select {
				case <-l.off.done:
					// Executor gone; drop.
				default:
					c.requeue = append(c.requeue, l.off)
				}
			}
		}
		c.forgetSilentLocked(now)
		if c.liveLocked() == 0 && len(c.requeue) > 0 {
			revert = c.requeue
			c.requeue = nil
		}
		// Cancelled offers sitting in the queue are dropped eagerly so a
		// long queue from an aborted job does not shadow fresh work.
		kept := c.requeue[:0]
		for _, off := range c.requeue {
			select {
			case <-off.done:
			default:
				kept = append(kept, off)
			}
		}
		c.requeue = kept
		queued := len(c.requeue)
		c.mu.Unlock()
		if expired > 0 {
			c.unitsReassigned.Add(int64(expired))
		}
		for _, off := range revert {
			off.resolve(outcome{revert: true})
		}
		if queued > 0 {
			select {
			case c.kick <- struct{}{}:
			default:
			}
		}
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
