package sim

import (
	"math"
	"testing"

	"hmscs/internal/rng"
	"hmscs/internal/stats"
)

// Event kinds used by the centre test harness.
const (
	tkArrive EventKind = iota
	tkDone
)

// centerHarness drives one centre from typed events: tkArrive fires the
// test's arrival logic, tkDone completes the centre's service in progress
// and hands the finished message index to the test.
type centerHarness struct {
	eng      *Engine
	c        *Center
	onArrive func()
	onDone   func(msg int32)
}

func newCenterHarness(eng *Engine, dist rng.Dist, stream *rng.Stream, mean float64) *centerHarness {
	h := &centerHarness{eng: eng, c: pricedCenter(eng, dist, stream, mean)}
	eng.SetHandler(h)
	return h
}

// pricedCenter returns centre 0 on eng, priced at mean.
func pricedCenter(eng *Engine, dist rng.Dist, stream *rng.Stream, mean float64) *Center {
	c := new(Center)
	c.Init("q", eng, dist, stream, tkDone, 0)
	c.Price(mean)
	return c
}

func (h *centerHarness) Handle(kind EventKind, idx int32) {
	switch kind {
	case tkArrive:
		h.onArrive()
	case tkDone:
		msg := h.c.CompleteService()
		if h.onDone != nil {
			h.onDone(msg)
		}
	}
}

// TestCenterMM1 drives a single centre with Poisson arrivals and exponential
// service and checks the measured sojourn time against 1/(mu-lambda).
func TestCenterMM1(t *testing.T) {
	eng := NewEngine()
	arrivals := rng.NewStream(1)
	lambda, mu := 0.7, 1.0
	h := newCenterHarness(eng, rng.Exponential{MeanValue: 1}, rng.NewStream(2), 1/mu)

	var lat stats.Welford
	const nMsgs = 200000
	born := make([]float64, 0, nMsgs)
	h.onArrive = func() {
		if len(born) >= nMsgs {
			return
		}
		msg := int32(len(born))
		born = append(born, eng.Now())
		h.c.Submit(msg)
		eng.Schedule(arrivals.ExpRate(lambda), tkArrive, 0)
	}
	h.onDone = func(msg int32) {
		lat.Add(eng.Now() - born[msg])
	}
	eng.Schedule(arrivals.ExpRate(lambda), tkArrive, 0)
	eng.Run(math.Inf(1))
	h.c.Flush()

	wantW := 1 / (mu - lambda)
	if got := lat.Mean(); math.Abs(got-wantW)/wantW > 0.05 {
		t.Fatalf("measured W = %v, want %v (M/M/1)", got, wantW)
	}
	if u := h.c.Stats().Utilization; math.Abs(u-lambda/mu) > 0.02 {
		t.Fatalf("utilisation = %v, want %v", u, lambda/mu)
	}
	wantL := (lambda / mu) / (1 - lambda/mu)
	if l := h.c.Stats().MeanQueueLength; math.Abs(l-wantL)/wantL > 0.06 {
		t.Fatalf("mean queue = %v, want %v", l, wantL)
	}
	if h.c.Served() != nMsgs {
		t.Fatalf("served = %d", h.c.Served())
	}
}

// TestCenterMD1 checks the deterministic-service ablation against the
// Pollaczek-Khinchine M/D/1 formula.
func TestCenterMD1(t *testing.T) {
	eng := NewEngine()
	arrivals := rng.NewStream(3)
	lambda, mean := 0.6, 1.0
	h := newCenterHarness(eng, rng.Deterministic{Value: 1}, rng.NewStream(4), mean)

	var lat stats.Welford
	const nMsgs = 100000
	born := make([]float64, 0, nMsgs)
	done := 0
	h.onArrive = func() {
		if done >= nMsgs {
			return
		}
		msg := int32(len(born))
		born = append(born, eng.Now())
		h.c.Submit(msg)
		eng.Schedule(arrivals.ExpRate(lambda), tkArrive, 0)
	}
	h.onDone = func(msg int32) {
		lat.Add(eng.Now() - born[msg])
		done++
	}
	eng.Schedule(arrivals.ExpRate(lambda), tkArrive, 0)
	eng.Run(math.Inf(1))

	rho := lambda * mean
	wantW := mean + rho*mean/(2*(1-rho)) // M/D/1 sojourn
	if got := lat.Mean(); math.Abs(got-wantW)/wantW > 0.05 {
		t.Fatalf("measured W = %v, want %v (M/D/1)", got, wantW)
	}
}

func TestCenterFIFO(t *testing.T) {
	eng := NewEngine()
	h := newCenterHarness(eng, rng.Deterministic{Value: 1}, rng.NewStream(5), 1)
	var order []int32
	h.onDone = func(msg int32) { order = append(order, msg) }
	for i := 0; i < 5; i++ {
		h.c.Submit(int32(i))
	}
	eng.Run(math.Inf(1))
	for i, v := range order {
		if v != int32(i) {
			t.Fatalf("service order = %v, want FIFO", order)
		}
	}
	if eng.Now() != 5 {
		t.Fatalf("five deterministic services took %v", eng.Now())
	}
}

func TestCenterQueueDrainReset(t *testing.T) {
	// After the queue fully drains, new arrivals must still be served
	// correctly (exercises the head-index reset).
	eng := NewEngine()
	h := newCenterHarness(eng, rng.Deterministic{Value: 1}, rng.NewStream(6), 0.25)
	served := 0
	h.onDone = func(int32) { served++ }
	for burst := 0; burst < 3; burst++ {
		for i := 0; i < 4; i++ {
			h.c.Submit(int32(i))
		}
		eng.Run(math.Inf(1))
		if h.c.QueueLength() != 0 {
			t.Fatalf("queue not drained after burst %d", burst)
		}
	}
	if served != 12 {
		t.Fatalf("served = %d", served)
	}
}

// TestCenterPriceRejectsNonPositiveMean: a price must be positive and
// finite; +Inf and NaN are refused at pricing, not at the first draw.
func TestCenterPriceRejectsNonPositiveMean(t *testing.T) {
	for _, mean := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("pricing at service mean %v did not panic", mean)
				}
			}()
			pricedCenter(NewEngine(), rng.Exponential{MeanValue: 1}, rng.NewStream(7), mean)
		}()
	}
}

// TestCenterServiceDrawsMatchSampleScaled pins the exponential
// draw-ahead outside the goldens: for every family, each service a
// centre schedules, whether started by a submission, a completion or a
// repair, and whether it completes or is voided by a requeueing or an
// evicting failure, falls due exactly when rng.SampleScaled on a twin of
// the centre's stream says it should, draw for draw.
func TestCenterServiceDrawsMatchSampleScaled(t *testing.T) {
	hyper, err := rng.NewHyperExp(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	const seed, mean = 11, 0.5
	const (
		requeue int32 = iota
		repair
	)
	for _, dist := range []rng.Dist{rng.Exponential{MeanValue: 1}, rng.Erlang{K: 3, MeanValue: 1}, hyper, rng.Deterministic{Value: 1}} {
		eng := NewEngine()
		c := pricedCenter(eng, dist, rng.NewStream(seed), mean)
		type start struct {
			seq uint64
			at  float64
		}
		var starts []start
		note := func() {
			if c.busy && (len(starts) == 0 || starts[len(starts)-1].seq != c.due) {
				starts = append(starts, start{c.due, eng.Now()})
			}
		}
		due := map[uint64]float64{}
		completed, evicted := 0, 0
		eng.SetHandler(handlerFunc(func(kind EventKind, idx int32) {
			switch {
			case kind == tkDone:
				due[eng.Current()] = eng.Now()
				if !c.TakeCompletion() {
					return
				}
				c.CompleteService()
				note()
				if completed++; completed == 2 {
					evicted = len(c.Fail(true))
					c.Submit(100) // queues behind the failure
					eng.Schedule(1, tkArrive, repair)
				}
			case idx == requeue:
				c.Fail(false)
			case idx == repair:
				c.Repair()
				note()
			}
		}))
		for i := int32(0); i < 4; i++ {
			c.Submit(i)
			note()
		}
		eng.Schedule(0, tkArrive, requeue) // voids the first service
		eng.Schedule(1, tkArrive, repair)
		eng.Run(math.Inf(1))

		// Job 0 starts twice around the requeue; 0 and 1 complete; the
		// evict voids 2 and takes 3 from the queue; the repair serves the
		// job queued behind the failure.
		if len(starts) != 5 || completed != 3 || evicted != 2 {
			t.Fatalf("%v: %d services started, %d completed, %d evicted; want 5, 3, 2", dist, len(starts), completed, evicted)
		}
		twin := rng.NewStream(seed)
		for i, s := range starts {
			want := s.at + rng.SampleScaled(dist, twin, mean)
			if got, ok := due[s.seq]; !ok || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v: service %d started at %v fell due at %v, want %v", dist, i, s.at, got, want)
			}
		}
	}
}

func TestCenterMaxQueueLength(t *testing.T) {
	eng := NewEngine()
	h := newCenterHarness(eng, rng.Deterministic{Value: 1}, rng.NewStream(8), 1)
	for i := 0; i < 7; i++ {
		h.c.Submit(int32(i))
	}
	eng.Run(math.Inf(1))
	h.c.Flush()
	if h.c.Stats().MaxQueueLength != 7 {
		t.Fatalf("max queue = %v, want 7", h.c.Stats().MaxQueueLength)
	}
}

// TestCenterQueueStorageBoundedByPeak drives one busy period of 100k
// submissions that never lets the queue drain: completions submit
// replacements, and the population alternates between 8 and 40 jobs every
// 5000 services so the ring both grows and wraps. Its storage must track
// the peak queue length, not the number of messages that passed through.
func TestCenterQueueStorageBoundedByPeak(t *testing.T) {
	eng := NewEngine()
	h := newCenterHarness(eng, rng.Exponential{MeanValue: 1}, rng.NewStream(9), 1)
	const total = 100000
	submitted, done := 0, 0
	submit := func() {
		h.c.Submit(int32(submitted))
		submitted++
	}
	h.onDone = func(int32) {
		done++
		target := 8
		if (done/5000)%2 == 1 {
			target = 40
		}
		for submitted < total && h.c.QueueLength() < target {
			submit()
		}
		if submitted < total && h.c.QueueLength() == 0 {
			t.Fatalf("queue drained after %d services", done)
		}
	}
	for i := 0; i < 8; i++ {
		submit()
	}
	eng.Run(math.Inf(1))
	h.c.Flush()
	if done != total {
		t.Fatalf("served %d of %d submissions", done, total)
	}
	peak := int(h.c.Stats().MaxQueueLength)
	if c := cap(h.c.queue.buf); peak < 40 || c > 2*peak {
		t.Fatalf("queue storage %d slots for a peak of %d jobs in system", c, peak)
	}
}

// TestCenterFailRequeueAndEvictOrder pins the failure policies' queue
// order: requeue puts the interrupted job back at the head, so it is
// served first after the repair; evict hands back the in-service job
// followed by the queue, in FIFO order.
func TestCenterFailRequeueAndEvictOrder(t *testing.T) {
	eng := NewEngine()
	var c *Center
	var order, evicted []int32
	eng.SetHandler(handlerFunc(func(kind EventKind, idx int32) {
		switch {
		case kind == tkDone:
			if c.TakeCompletion() {
				order = append(order, c.CompleteService())
			}
		case idx == 0:
			c.Fail(false)
		case idx == 1:
			c.Repair()
		default:
			evicted = c.Fail(true)
		}
	}))
	c = pricedCenter(eng, rng.Deterministic{Value: 1}, rng.NewStream(10), 1)
	for i := int32(0); i < 3; i++ {
		c.Submit(i)
	}
	eng.Schedule(0.5, tkArrive, 0) // requeue failure mid-service
	eng.Schedule(2, tkArrive, 1)   // repair
	eng.Run(math.Inf(1))
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 || eng.Now() != 5 {
		t.Fatalf("requeue: served %v by t=%v, want [0 1 2] by t=5", order, eng.Now())
	}

	for i := int32(3); i < 6; i++ {
		c.Submit(i)
	}
	eng.Schedule(0.5, tkArrive, 2) // evicting failure mid-service
	eng.Run(math.Inf(1))
	if len(evicted) != 3 || evicted[0] != 3 || evicted[1] != 4 || evicted[2] != 5 || c.QueueLength() != 0 {
		t.Fatalf("evict: got %v with %d left, want [3 4 5] and an empty centre", evicted, c.QueueLength())
	}
}

// TestCenterVoidedCompletionCollision: a dropped job's voided completion
// and the next job's completion fall on the same instant, with a probe
// event between them in (at, seq) order. The voided event must complete
// nothing, so the probe sees no service yet; the new job completes at
// its own event.
func TestCenterVoidedCompletionCollision(t *testing.T) {
	eng := NewEngine()
	var c *Center
	var evicted, done []int32
	probe := int64(-1)
	eng.SetHandler(handlerFunc(func(kind EventKind, idx int32) {
		switch {
		case kind == tkDone:
			if c.TakeCompletion() {
				done = append(done, c.CompleteService())
			}
		case idx == 0:
			evicted = c.Fail(true)
			c.Repair()
			c.Submit(1) // due at 0 + 1 = 1, like the voided event
		default:
			probe = c.Served()
		}
	}))
	c = pricedCenter(eng, rng.Deterministic{Value: 1}, rng.NewStream(10), 1)
	c.Submit(0)                  // completion due at t=1
	eng.Schedule(1, tkArrive, 1) // the probe, after it in seq order
	eng.Schedule(0, tkArrive, 0) // drop job 0, start job 1
	eng.Run(math.Inf(1))
	if len(evicted) != 1 || evicted[0] != 0 {
		t.Fatalf("evicted %v, want [0]", evicted)
	}
	if probe != 0 {
		t.Fatalf("probe at t=1 saw %d services, want 0: the voided completion finished the new job early", probe)
	}
	if len(done) != 1 || done[0] != 1 || c.Served() != 1 || eng.Now() != 1 {
		t.Fatalf("completed %v (served %d) by t=%v, want [1] by t=1", done, c.Served(), eng.Now())
	}
}
