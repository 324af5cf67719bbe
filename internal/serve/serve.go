// Package serve is the resident experiment service behind the
// hmscs-server binary: a long-running daemon that accepts
// run.Experiment submissions from many concurrent clients, schedules
// them on one shared bounded worker budget, streams each job's JSONL
// progress events back over HTTP, and caches outcomes keyed by a hash
// of the normalized spec.
//
// The split mirrors the memory-resident daemon + thin local driver
// shape: the six per-kind binaries stay the front end (their -submit
// flag turns any invocation into a remote submission through Client),
// while the server owns the worker pool, the watchable job Store, and
// the outcome cache. Determinism makes the cache exact — identical
// normalized specs produce byte-identical outcomes at every
// parallelism and replication schedule, so a cache hit
// replays the recorded event stream and rendered report bit for bit
// without doing any simulation work (see SpecHash for the key).
//
// HTTP API (full reference in docs/SERVER.md):
//
//	POST   /jobs             submit an experiment spec (JSON body)
//	GET    /jobs             list jobs in creation order
//	GET    /jobs/{id}        one job's status snapshot
//	GET    /jobs/{id}/spec   the normalized spec the job runs
//	GET    /jobs/{id}/events stream the JSONL progress events (replay + live)
//	GET    /jobs/{id}/result the rendered report of a done job
//	DELETE /jobs/{id}        cancel a queued or running job
//	GET    /watch            stream store-wide job status updates
//	GET    /healthz          liveness and counters
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hmscs/internal/dist"
	"hmscs/internal/par"
	"hmscs/internal/run"
	"hmscs/internal/telemetry"
)

// Config sizes the service.
type Config struct {
	// Parallelism is the total simulation worker budget shared by every
	// running job (<= 0 = all cores) — the server-wide equivalent of
	// the binaries' -parallel flag. Each running job gets
	// par.Workers(Parallelism, MaxJobs) pool workers, so the goroutine
	// total stays near Parallelism no matter how jobs and replications
	// are mixed.
	Parallelism int
	// MaxJobs bounds the jobs running concurrently (<= 0 = 2). Queued
	// jobs start in submission order.
	MaxJobs int
	// CacheSize bounds the completed outcomes kept for exact replay
	// (0 = 256, < 0 disables caching). Eviction is oldest-first.
	CacheSize int
	// QueueDepth bounds the pending-job backlog (0 = 1024); submissions
	// beyond it are rejected rather than buffered without limit.
	QueueDepth int
	// DistLeaseTTL is how long a distributed unit lease survives missed
	// worker heartbeats before its unit is re-offered (0 =
	// dist.DefaultLeaseTTL). Short TTLs recover from worker death faster
	// at the cost of more heartbeat traffic.
	DistLeaseTTL time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxJobs <= 0 {
		c.MaxJobs = 2
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	return c
}

// cacheEntry is one completed outcome: the full JSONL event stream and
// the rendered report, replayed byte-identically on every hit.
type cacheEntry struct {
	events [][]byte
	result []byte
}

// Server is the resident experiment service. Create one with New, mount
// Handler on an http.Server, and Close it to drain.
type Server struct {
	cfg   Config
	store *Store

	mu         sync.Mutex
	cache      map[string]*cacheEntry
	cacheOrder []string

	queue  chan *Job
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	runs    atomic.Int64
	running atomic.Int64

	// started anchors the uptime gauge; reg renders GET /metrics; col
	// accumulates every run's engine stats process-wide (each run also
	// keeps its own collector for per-job resource accounting).
	started time.Time
	reg     *telemetry.Registry
	col     *telemetry.Collector

	// dist coordinates attached hmscs-worker processes; jobs whose spec
	// decomposes into units fan out through it transparently.
	dist *dist.Coordinator

	jobsSubmitted  *telemetry.Counter
	cacheHits      *telemetry.Counter
	cacheMisses    *telemetry.Counter
	cacheEvictions *telemetry.Counter
	jobWall        *telemetry.Histogram
}

// New starts a server's scheduling workers (MaxJobs goroutines); it
// serves no HTTP until Handler is mounted somewhere.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		store:   NewStore(),
		cache:   make(map[string]*cacheEntry),
		queue:   make(chan *Job, cfg.QueueDepth),
		ctx:     ctx,
		cancel:  cancel,
		started: time.Now(),
		reg:     telemetry.NewRegistry(),
		col:     telemetry.NewCollector(),
		dist:    dist.NewCoordinator(cfg.DistLeaseTTL),
	}
	s.store.queue = s.queue
	s.registerMetrics()
	for i := 0; i < cfg.MaxJobs; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// registerMetrics declares the /metrics surface. Registration order is
// render order (docs/OBSERVABILITY.md documents every name). The
// terminal counters are bumped by the store's half of a job's
// transition, the rest by the scheduler; the sim/pool families are
// scrape-time reads of the server Collector and the process-wide pool
// counters, so a scrape never blocks a running job.
func (s *Server) registerMetrics() {
	r := s.reg
	r.GaugeFunc("hmscs_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })
	s.jobsSubmitted = r.Counter("hmscs_jobs_submitted_total", "Jobs accepted by POST /jobs, including cache hits.")
	s.store.counters = map[Status]*telemetry.Counter{
		StatusDone:      r.Counter("hmscs_jobs_done_total", "Jobs that finished successfully (cache hits excluded)."),
		StatusFailed:    r.Counter("hmscs_jobs_failed_total", "Jobs that finished with an error."),
		StatusCancelled: r.Counter("hmscs_jobs_cancelled_total", "Jobs cancelled while queued or running, shutdown's drain included."),
	}
	r.GaugeFunc("hmscs_jobs_running", "Jobs currently executing.",
		func() float64 { return float64(s.running.Load()) })
	r.GaugeFunc("hmscs_queue_depth", "Jobs waiting in the submission queue.",
		func() float64 { return float64(len(s.queue)) })
	r.CounterFunc("hmscs_runs_total", "Experiments actually executed; a cache hit does not run.",
		func() float64 { return float64(s.Runs()) })
	s.cacheHits = r.Counter("hmscs_cache_hits_total", "Submissions served from the outcome cache.")
	s.cacheMisses = r.Counter("hmscs_cache_misses_total", "Submissions that missed the cache.")
	s.cacheEvictions = r.Counter("hmscs_cache_evictions_total", "Outcome-cache entries evicted oldest-first.")
	r.GaugeFunc("hmscs_cache_entries", "Outcome-cache entries currently held.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(len(s.cache)) })
	s.jobWall = r.Histogram("hmscs_job_wall_seconds", "Wall time of executed jobs.",
		[]float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600})
	sim := func(f func(telemetry.SimStats, int64) float64) func() float64 {
		return func() float64 { st, reps := s.col.Snapshot(); return f(st, reps) }
	}
	r.CounterFunc("hmscs_sim_events_total", "Engine events dispatched across all runs (incl. fixed-point re-runs).",
		sim(func(st telemetry.SimStats, _ int64) float64 { return float64(st.Events) }))
	r.CounterFunc("hmscs_sim_generated_total", "Messages generated across all runs.",
		sim(func(st telemetry.SimStats, _ int64) float64 { return float64(st.Generated) }))
	r.CounterFunc("hmscs_sim_replications_total", "Simulation replications completed across all runs.",
		sim(func(_ telemetry.SimStats, reps int64) float64 { return float64(reps) }))
	r.CounterFunc("hmscs_pool_units_total", "Worker-pool units (replications, sweep points) completed.",
		func() float64 { return float64(par.Stats().Units) })
	r.CounterFunc("hmscs_pool_busy_seconds_total", "Summed wall time workers spent executing units.",
		func() float64 { return par.Stats().Busy.Seconds() })
	s.dist.RegisterMetrics(r)
}

// Metrics exposes the server's registry (the /metrics surface) so the
// binary can register process extras before serving.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Stats exposes the server-lifetime engine statistics collector.
func (s *Server) Stats() *telemetry.Collector { return s.col }

// Store exposes the watchable job registry (List/Get/Watch).
func (s *Server) Store() *Store { return s.store }

// Dist exposes the distributed-unit coordinator (worker registry, unit
// accounting) for the /dist endpoints, /healthz and tests.
func (s *Server) Dist() *dist.Coordinator { return s.dist }

// Runs reports how many experiments the server actually executed —
// cache hits do not count, which is what makes the counter useful for
// asserting that a replayed submission did no simulation work.
func (s *Server) Runs() int64 { return s.runs.Load() }

// Close shuts the service down: running jobs have their contexts
// cancelled (the runner drains between replication units), workers are
// joined, and every job still queued is marked cancelled. Close is the
// programmatic half of shutdown; the binary pairs it with
// http.Server.Shutdown so open event streams end first. Closing again
// does nothing.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
	s.dist.Close()
	for {
		select {
		case job := <-s.queue:
			job.Cancel()
		default:
			return
		}
	}
}

// Submit validates, normalizes and enqueues one experiment. An
// identical spec (same SpecHash) that already completed successfully is
// served from the cache: the returned job is born done with the
// recorded event stream and result, and no simulation runs. Submissions
// past the queue bound are rejected with an error. A miss runs the spec
// as it reads back from its marshalled form, the form its cache key and
// the fleet's workers see. A spec is a value, so every accepted spec is
// cacheable; the server writes no files, so an in-process spec asking
// for a journey CSV is rejected.
func (s *Server) Submit(e *run.Experiment) (*Job, error) {
	if e == nil {
		return nil, fmt.Errorf("serve: nil experiment")
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	if e.Simulate != nil && e.Simulate.TraceOut != "" {
		return nil, fmt.Errorf("serve: simulate.TraceOut names a file, and the server writes no files; record the journey CSV locally")
	}
	spec := e.Clone()
	spec.Normalize()
	hash, err := SpecHash(spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	entry := s.cache[hash]
	s.mu.Unlock()
	if entry != nil {
		s.jobsSubmitted.Inc()
		s.cacheHits.Inc()
		job, _ := s.store.add(spec, hash, nil, func() {}, entry)
		return job, nil
	}
	// The cache key and the fleet see the spec's marshalled form, so run
	// that form too: a Go-built float that JSON does not carry exactly
	// would otherwise run locally one ulp away from the value it is
	// cached and fanned out under.
	data, err := spec.Marshal()
	if err != nil {
		return nil, err
	}
	if spec, err = run.Parse(data); err != nil {
		return nil, err
	}
	s.cacheMisses.Inc()
	ctx, cancel := context.WithCancel(s.ctx)
	job, ok := s.store.add(spec, hash, ctx, cancel, nil)
	if !ok {
		cancel()
		return nil, fmt.Errorf("serve: queue full (%d jobs pending)", s.cfg.QueueDepth)
	}
	s.jobsSubmitted.Inc()
	return job, nil
}

// worker pulls queued jobs in submission order and runs them; MaxJobs
// workers give the bounded concurrent-jobs budget.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case job := <-s.queue:
			s.runJob(job)
		}
	}
}

// runJob executes one job: progress events stream into the job's
// replayable buffer through the same JSONL sink a local -emit uses, the
// report renders through the same markdown sink a local stdout uses —
// which is why remote output is byte-identical to a local run — and a
// successful outcome is recorded in the cache.
func (s *Server) runJob(job *Job) {
	if s.ctx.Err() != nil {
		job.Cancel() // shutting down: a job still queued is drained, not started
	}
	if !job.transition(StatusQueued, StatusRunning, "", nil, nil) {
		return // cancelled while queued
	}
	s.running.Add(1)
	defer s.running.Add(-1)
	var report bytes.Buffer
	sinks := []run.Sink{
		run.NewJSONLSink(&eventLog{job: job}),
		run.NewMarkdownSink(&report),
	}
	ropts := run.Options{
		Parallelism: par.Workers(s.cfg.Parallelism, s.cfg.MaxJobs),
		Sinks:       sinks,
		Stats:       s.col,
	}
	// With live workers attached, a job fans every stage's units out
	// through the coordinator, whichever engine runs them. The outcome is
	// byte-identical either way (units are pure functions of the spec and
	// merge positionally), so attachment is transparent to the client.
	if s.dist.Live() > 0 {
		if ex, err := dist.NewExecutor(job.ctx, s.dist, job.hash, job.spec, ropts.Parallelism); err == nil {
			ropts.Units = ex.Runner
			defer ex.Close()
		}
	}
	s.runs.Add(1)
	out, err := execute(job.ctx, job.spec, ropts)
	switch {
	case err == nil:
		if out != nil && out.Telemetry != nil {
			s.jobWall.Observe(out.Telemetry.WallSeconds)
		}
		// Cache first: a client that has seen the job finish must hit
		// the cache with its next identical submission.
		s.remember(job, report.Bytes())
		job.transition(StatusRunning, StatusDone, "", report.Bytes(), out)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		job.transition(StatusRunning, StatusCancelled, err.Error(), nil, out)
	default:
		job.transition(StatusRunning, StatusFailed, err.Error(), nil, out)
	}
}

// runExperiment runs one job's spec. It is a variable so tests can
// inject a faulty run.
var runExperiment = run.Run

// execute runs a job with a panic on the job's goroutine returned as a
// *par.PanicError, so the job fails and the server keeps serving. Pool
// workers and dist's local engine slots recover their own goroutines.
func execute(ctx context.Context, spec *run.Experiment, opts run.Options) (out *run.Outcome, err error) {
	defer par.Recover(&err)
	return runExperiment(ctx, spec, opts)
}

// remember stores a successful job's stream and report under its spec
// hash, evicting the oldest entry past the cache bound. The run has
// returned, so the job's event stream is complete.
func (s *Server) remember(job *Job, result []byte) {
	if s.cfg.CacheSize < 0 {
		return
	}
	events, _ := job.EventsFrom(0)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.cache[job.hash]; exists {
		return // first completion wins; later ones are byte-identical anyway
	}
	s.cache[job.hash] = &cacheEntry{events: events, result: result}
	s.cacheOrder = append(s.cacheOrder, job.hash)
	for len(s.cacheOrder) > s.cfg.CacheSize {
		delete(s.cache, s.cacheOrder[0])
		s.cacheOrder = s.cacheOrder[1:]
		s.cacheEvictions.Inc()
	}
}
