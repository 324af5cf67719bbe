package sim

import (
	"fmt"

	"hmscs/internal/rng"
	"hmscs/internal/stats"
)

// pendingJob is one message waiting for service at a centre: a plain value
// (no pointers), so the queue never allocates per message.
type pendingJob struct {
	serviceMean float64
	msg         int32
}

// jobRing is a FIFO of pending jobs in a power-of-two ring buffer. Its
// storage is bounded by the peak queue length, however many messages pass
// through one busy period.
type jobRing struct {
	buf  []pendingJob
	head int
	n    int
}

func (r *jobRing) at(i int) pendingJob { return r.buf[(r.head+i)&(len(r.buf)-1)] }

// grow doubles the ring, unwrapping its contents to start at index 0.
func (r *jobRing) grow() {
	buf := r.appendTo(make([]pendingJob, 0, max(8, 2*len(r.buf))))
	r.buf, r.head = buf[:cap(buf)], 0
}

func (r *jobRing) pushBack(j pendingJob) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = j
	r.n++
}

func (r *jobRing) pushFront(j pendingJob) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = j
	r.n++
}

func (r *jobRing) popFront() pendingJob {
	j := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return j
}

// appendTo appends the queued jobs to dst in FIFO order.
func (r *jobRing) appendTo(dst []pendingJob) []pendingJob {
	for i := 0; i < r.n; i++ {
		dst = append(dst, r.at(i))
	}
	return dst
}

func (r *jobRing) clear() { r.head, r.n = 0, 0 }

// Center is a FIFO single-server service centre modelling one
// communication network. Service times are drawn from the configured
// distribution family scaled to each job's mean (so variable message sizes
// and non-exponential ablations are both supported).
//
// A centre does not call back into its owner: when a service completes the
// engine dispatches (doneKind, id) to the owner's Handler, which calls
// CompleteService to collect the finished message index and route it.
type Center struct {
	Name string

	id       int32
	doneKind EventKind
	eng      *Engine
	distTpl  rng.Dist
	stream   *rng.Stream

	busy      bool
	inService pendingJob
	queue     jobRing

	// Dynamic-scenario state. A failed centre accepts submissions into its
	// queue but serves nothing; dueAt is the scheduled completion time of
	// the job in service and stale counts voided completion events still in
	// the engine's future-event set (a failure cannot unschedule them, so
	// TakeCompletion swallows them on arrival). All three stay at their
	// zero values in stationary runs, which never call Fail.
	failed bool
	dueAt  float64
	stale  int

	qlen   stats.TimeWeighted // number in system (queue + in service)
	busyTW stats.TimeWeighted // 0/1 busy signal
	served int64
	inSys  int
}

// NewCenter creates a centre served according to the given distribution
// family (its mean is rescaled per job) drawing from its own random
// stream. Service completions are announced by scheduling (doneKind, id)
// on the engine.
func NewCenter(name string, eng *Engine, distTpl rng.Dist, stream *rng.Stream, doneKind EventKind, id int32) *Center {
	c := &Center{}
	c.init(name, eng, distTpl, stream, doneKind, id)
	return c
}

// init (re)sets c to a fresh, idle centre. Only the queue's ring buffer
// survives, so a pooled simulator's centres keep their storage between
// replications.
func (c *Center) init(name string, eng *Engine, distTpl rng.Dist, stream *rng.Stream, doneKind EventKind, id int32) {
	*c = Center{Name: name, eng: eng, distTpl: distTpl, stream: stream, doneKind: doneKind, id: id,
		queue: jobRing{buf: c.queue.buf}}
	c.qlen.Observe(eng.Now(), 0)
	c.busyTW.Observe(eng.Now(), 0)
}

// ID returns the centre id passed to NewCenter (the idx of its completion
// events).
func (c *Center) ID() int32 { return c.id }

// Submit enqueues message msg whose mean service time is serviceMean. When
// its service completes the engine dispatches (doneKind, id) to the
// handler, which must call CompleteService.
func (c *Center) Submit(serviceMean float64, msg int32) {
	if serviceMean <= 0 {
		panic(fmt.Sprintf("sim: centre %s got service mean %v", c.Name, serviceMean))
	}
	c.inSys++
	c.qlen.Observe(c.eng.Now(), float64(c.inSys))
	j := pendingJob{serviceMean: serviceMean, msg: msg}
	if c.busy || c.failed {
		c.queue.pushBack(j)
		return
	}
	c.start(j)
}

func (c *Center) start(j pendingJob) {
	c.busy = true
	c.busyTW.Observe(c.eng.Now(), 1)
	c.inService = j
	d := rng.SampleScaled(c.distTpl, c.stream, j.serviceMean)
	c.dueAt = c.eng.Now() + d
	c.eng.Schedule(d, c.doneKind, c.id)
}

// CompleteService finishes the message in service — updating statistics
// and starting the next queued job — and returns the finished message
// index for the handler to route onward. It must be called exactly once
// per (doneKind, id) event.
func (c *Center) CompleteService() int32 {
	done := c.inService.msg
	c.served++
	c.inSys--
	c.qlen.Observe(c.eng.Now(), float64(c.inSys))
	if c.queue.n > 0 {
		c.start(c.queue.popFront())
	} else {
		c.busy = false
		c.busyTW.Observe(c.eng.Now(), 0)
	}
	return done
}

// TakeCompletion reports whether the (doneKind, id) event that just
// fired is a live completion. Scenario runs call it before
// CompleteService: a failure cannot unschedule the in-flight completion
// event of the job it interrupted, so that event still fires and must be
// swallowed. An event is live exactly when the centre is up, busy, and
// the clock matches the in-service job's due time; anything else
// consumes one stale token. (When a voided event's timestamp collides
// with a restarted job's due time, the voided event arrives first and
// passes the liveness check — completing the job it is indistinguishable
// from — and the job's own event then consumes the token. The net effect
// is identical.) Stationary runs never fail centres and never call this.
func (c *Center) TakeCompletion() bool {
	if !c.failed && c.busy && c.eng.Now() == c.dueAt {
		return true
	}
	if c.stale == 0 {
		panic(fmt.Sprintf("sim: centre %s got a completion event with no job due and no stale token", c.Name))
	}
	c.stale--
	return false
}

// Fail takes the centre out of service. The interrupted in-service job's
// completion event becomes stale. With evict=true the in-service and
// queued messages are removed and returned for the caller to apply the
// event's policy (drop or reroute); with evict=false (requeue) they stay
// queued — the interrupted job returns to the queue head and resumes
// with a fresh service draw on repair. Submissions while failed simply
// queue up behind it.
func (c *Center) Fail(evict bool) []int32 {
	if c.failed {
		panic(fmt.Sprintf("sim: centre %s failed twice", c.Name))
	}
	c.failed = true
	var out []int32
	if c.busy {
		c.stale++
		c.busy = false
		c.busyTW.Observe(c.eng.Now(), 0)
		if evict {
			out = append(out, c.inService.msg)
		} else {
			c.queue.pushFront(c.inService)
		}
	}
	if evict {
		for i := 0; i < c.queue.n; i++ {
			out = append(out, c.queue.at(i).msg)
		}
		c.queue.clear()
		c.inSys = 0
		c.qlen.Observe(c.eng.Now(), 0)
	}
	return out
}

// Repair returns the centre to service, starting the queue head (if any)
// with a fresh service draw.
func (c *Center) Repair() {
	if !c.failed {
		panic(fmt.Sprintf("sim: centre %s repaired while up", c.Name))
	}
	c.failed = false
	if c.queue.n > 0 {
		c.start(c.queue.popFront())
	}
}

// Failed reports whether the centre is out of service.
func (c *Center) Failed() bool { return c.failed }

// QueueLength returns the current number of messages in the centre.
func (c *Center) QueueLength() int { return c.inSys }

// Served returns the number of completed services.
func (c *Center) Served() int64 { return c.served }

// Flush closes the time-weighted statistics at the current clock.
func (c *Center) Flush() {
	c.qlen.FlushTo(c.eng.Now())
	c.busyTW.FlushTo(c.eng.Now())
}

// Utilization returns the time-averaged busy fraction.
func (c *Center) Utilization() float64 { return c.busyTW.Mean() }

// MeanQueueLength returns the time-averaged number in system.
func (c *Center) MeanQueueLength() float64 { return c.qlen.Mean() }

// MaxQueueLength returns the peak number in system.
func (c *Center) MaxQueueLength() float64 { return c.qlen.Max() }
