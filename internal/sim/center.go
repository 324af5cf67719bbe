package sim

import (
	"fmt"
	"math"

	"hmscs/internal/rng"
	"hmscs/internal/stats"
)

// jobRing is a FIFO of queued message indices in a power-of-two ring
// buffer. Its storage is bounded by the peak queue length, however many
// messages pass through one busy period.
type jobRing struct {
	buf  []int32
	head int
	n    int
}

func (r *jobRing) at(i int) int32 { return r.buf[(r.head+i)&(len(r.buf)-1)] }

// grow doubles the ring, unwrapping its contents to start at index 0.
func (r *jobRing) grow() {
	buf := r.appendTo(make([]int32, 0, max(8, 2*len(r.buf))))
	r.buf, r.head = buf[:cap(buf)], 0
}

func (r *jobRing) pushBack(msg int32) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = msg
	r.n++
}

func (r *jobRing) pushFront(msg int32) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = msg
	r.n++
}

func (r *jobRing) popFront() int32 {
	msg := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return msg
}

// appendTo appends the queued messages to dst in FIFO order.
func (r *jobRing) appendTo(dst []int32) []int32 {
	for i := 0; i < r.n; i++ {
		dst = append(dst, r.at(i))
	}
	return dst
}

func (r *jobRing) clear() { r.head, r.n = 0, 0 }

// Center is a FIFO single-server service centre modelling one
// communication network. Every message costs it the same mean service
// time, its price (the paper's one service time for the fixed message
// size M, eq. 11/21), set once per replication by Price. Service times
// are drawn from the configured distribution family scaled to that mean
// (so non-exponential ablations are supported).
//
// An exponential centre draws each service one service early: ahead
// holds log(U) for its next service, so the logarithm's latency overlaps
// the scheduling of the current one instead of feeding it. The stream is
// private to the centre and read in the same order, so every service time
// is bit-identical to rng.SampleScaled's (DESIGN.md §3).
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
	mean     float64
	// ahead is log(U) for the next exponential service, or 0 while not
	// yet drawn: log(U) < 0 for every U in (0, 1). exp marks the
	// exponential family, the only one drawn ahead.
	ahead float64
	exp   bool

	busy      bool
	inService int32
	queue     jobRing

	// A failed centre accepts submissions into its queue but serves
	// nothing. due is the token of the in-service job's completion event;
	// Fail zeroes it, so the voided event that still fires is told apart
	// by TakeCompletion. Stationary runs never call Fail.
	failed bool
	due    uint64

	qlen   stats.TimeWeighted // number in system (queue + in service)
	busyTW stats.TimeWeighted // 0/1 busy signal
	served int64
	inSys  int
}

// Init (re)sets c to a fresh, idle, unpriced centre served according to
// the given distribution family, drawing from its own random stream and
// announcing service completions by scheduling (doneKind, id) on eng.
// Only the queue's ring buffer survives, so a slab of centres keeps its
// storage between replications.
func (c *Center) Init(name string, eng *Engine, distTpl rng.Dist, stream *rng.Stream, doneKind EventKind, id int32) {
	_, exp := distTpl.(rng.Exponential)
	*c = Center{Name: name, eng: eng, distTpl: distTpl, stream: stream, doneKind: doneKind, id: id,
		exp: exp, queue: jobRing{buf: c.queue.buf}}
	c.qlen.Observe(eng.Now(), 0)
	c.busyTW.Observe(eng.Now(), 0)
}

// Price sets the mean service time of every message the centre serves.
// A mean that is not positive and finite is a bug in the caller's
// pricing: the engines price from validated networks. (This is the guard
// rng.Exp applies per draw; the draw-ahead path applies it once here.)
func (c *Center) Price(mean float64) {
	if !(mean > 0) || math.IsInf(mean, 1) {
		panic(fmt.Sprintf("sim: centre %q priced at service mean %v", c.Name, mean))
	}
	c.mean = mean
}

// Submit enqueues message msg on a priced centre. When its service
// completes the engine dispatches (doneKind, id) to the handler, which
// must call CompleteService.
func (c *Center) Submit(msg int32) {
	c.inSys++
	c.qlen.Observe(c.eng.Now(), float64(c.inSys))
	if c.busy || c.failed {
		c.queue.pushBack(msg)
		return
	}
	c.start(msg)
}

func (c *Center) start(msg int32) {
	c.busy = true
	c.busyTW.Observe(c.eng.Now(), 1)
	c.inService = msg
	if !c.exp {
		c.due = c.eng.Schedule(rng.SampleScaled(c.distTpl, c.stream, c.mean), c.doneKind, c.id)
		return
	}
	if c.ahead == 0 {
		c.ahead = math.Log(c.stream.Float64Open())
	}
	// -mean·log(U), exactly as rng.Exp computes it; the conversion keeps
	// the product rounded on its own, never fused into Schedule's add.
	c.due = c.eng.Schedule(float64(-c.mean*c.ahead), c.doneKind, c.id)
	c.ahead = math.Log(c.stream.Float64Open())
}

// CompleteService finishes the message in service — updating statistics
// and starting the next queued job — and returns the finished message
// index for the handler to route onward. It must be called exactly once
// per (doneKind, id) event.
func (c *Center) CompleteService() int32 {
	done := c.inService
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

// TakeCompletion reports whether the (doneKind, id) event being
// dispatched is the live completion of the job in service, rather than
// one voided by a failure (which cannot unschedule it). Scenario runs call
// it before CompleteService; stationary runs never fail a centre and skip
// it.
func (c *Center) TakeCompletion() bool { return c.due == c.eng.Current() }

// Fail takes the centre out of service, voiding the interrupted
// in-service job's completion event. With evict=true the in-service and
// queued messages are removed and returned for the caller to apply the
// event's policy (drop or reroute); with evict=false (requeue) they stay
// queued — the interrupted job returns to the queue head and resumes
// with a fresh service draw on repair. Submissions while failed simply
// queue up behind it.
func (c *Center) Fail(evict bool) []int32 {
	if c.failed {
		panic(fmt.Sprintf("sim: centre %q (id %d) failed twice", c.Name, c.id))
	}
	c.failed, c.due = true, 0
	var out []int32
	if c.busy {
		c.busy = false
		c.busyTW.Observe(c.eng.Now(), 0)
		if evict {
			out = append(out, c.inService)
		} else {
			c.queue.pushFront(c.inService)
		}
	}
	if evict {
		out = c.queue.appendTo(out)
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
		panic(fmt.Sprintf("sim: centre %q (id %d) repaired while up", c.Name, c.id))
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

// Stats flushes the centre and returns its statistics: the
// time-averaged busy fraction and number in system, the peak number in
// system and the completed services.
func (c *Center) Stats() CenterStats {
	c.Flush()
	return CenterStats{
		Name:            c.Name,
		Utilization:     c.busyTW.Mean(),
		MeanQueueLength: c.qlen.Mean(),
		MaxQueueLength:  c.qlen.Max(),
		Served:          c.served,
	}
}
