package serve

import (
	"bytes"
	"context"
	"sync"
	"time"

	"hmscs/internal/run"
	"hmscs/internal/telemetry"
)

// Status is a job's lifecycle state. Jobs move queued → running →
// done/failed, with cancelled reachable from queued and running (via
// DELETE /jobs/{id}, a client disconnect that cancels, or server
// shutdown).
type Status string

// The job statuses.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final: no further transitions,
// and the job's event stream is complete.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// JobInfo is a job's wire representation — what POST /jobs returns and
// GET /jobs/{id} reports.
type JobInfo struct {
	// ID addresses the job under /jobs/{id}.
	ID string `json:"id"`
	// Kind is the experiment kind the job runs.
	Kind run.Kind `json:"kind"`
	// Status is the lifecycle state at the time of the snapshot.
	Status Status `json:"status"`
	// SpecHash is the normalized spec's cache key (see SpecHash).
	SpecHash string `json:"spec_hash"`
	// Cached is true when the job was served from the outcome cache
	// without running: it was born done, and its events replay the
	// recorded stream byte for byte.
	Cached bool `json:"cached"`
	// Events counts the progress-event lines buffered so far.
	Events int `json:"events"`
	// Error carries the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// CreatedAt, StartedAt and FinishedAt stamp the transitions (zero
	// values are omitted as null-less absent fields by pointer).
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// Resources is the job's engine accounting, present once the job has
	// executed. Cache-hit jobs have none — they did no simulation work.
	Resources *JobResources `json:"resources,omitempty"`
}

// JobResources is what one executed job cost: wall time, engine volume
// and throughput. Sourced from the run's Outcome.Telemetry.
type JobResources struct {
	WallSeconds     float64 `json:"wall_s"`
	SimEvents       int64   `json:"sim_events"`
	EventsPerSecond float64 `json:"events_per_s"`
	Generated       int64   `json:"generated"`
	Replications    int64   `json:"replications"`
}

// Job is one submitted experiment tracked by the store: its normalized
// spec, lifecycle status, buffered progress-event lines (the JSONL
// stream a local -emit would have produced, replayable from the start
// at any time), and the rendered result. All mutators notify the job's
// event watchers and the store's status watchers.
type Job struct {
	id     string
	hash   string
	cached bool
	spec   *run.Experiment
	store  *Store

	// ctx governs the run; cancel is what DELETE and shutdown call.
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	status    Status
	err       string
	events    [][]byte
	result    []byte
	resources *JobResources
	created   time.Time
	started   time.Time
	finished  time.Time
	watchers  map[chan struct{}]struct{}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// SpecHash returns the job's cache key.
func (j *Job) SpecHash() string { return j.hash }

// Spec returns the job's normalized experiment (shared; do not mutate).
func (j *Job) Spec() *run.Experiment { return j.spec }

// Cancel aborts the job: a queued job is marked cancelled before it can
// start, a running one has its context cancelled (the runner drains
// between replication units and the worker marks it cancelled).
// Terminal jobs are left untouched.
func (j *Job) Cancel() {
	j.mu.Lock()
	if j.status == StatusQueued {
		j.finishLocked(StatusCancelled, "")
		j.mu.Unlock()
		j.cancel()
		j.store.end(j)
		return
	}
	j.mu.Unlock()
	j.cancel()
}

// Info snapshots the job's wire representation.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:        j.id,
		Kind:      j.spec.Kind,
		Status:    j.status,
		SpecHash:  j.hash,
		Cached:    j.cached,
		Events:    len(j.events),
		Error:     j.err,
		CreatedAt: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		info.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		info.FinishedAt = &t
	}
	if j.resources != nil {
		r := *j.resources
		info.Resources = &r
	}
	return info
}

// setResources records the run's engine accounting from its telemetry
// section; the worker calls it before the terminal transition.
func (j *Job) setResources(t *telemetry.RunStats) {
	if t == nil {
		return
	}
	r := &JobResources{
		WallSeconds:     t.WallSeconds,
		SimEvents:       t.Sim.Events,
		EventsPerSecond: t.EventsPerSecond(),
		Generated:       t.Sim.Generated,
		Replications:    t.Replications,
	}
	j.mu.Lock()
	j.resources = r
	j.mu.Unlock()
}

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Result returns the rendered outcome (the markdown report a local run
// would have printed) and whether the job reached StatusDone.
func (j *Job) Result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.status == StatusDone
}

// EventsFrom returns the buffered event lines starting at index cur and
// whether the stream is complete (the job is terminal). The returned
// slices alias the buffer; lines are append-only and never rewritten.
func (j *Job) EventsFrom(cur int) ([][]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cur > len(j.events) {
		cur = len(j.events)
	}
	return j.events[cur:], j.status.Terminal()
}

// Subscribe registers a wake-up channel signalled (best-effort, cap 1)
// on every event append and status change. Pair with Unsubscribe.
func (j *Job) Subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	if j.watchers == nil {
		j.watchers = make(map[chan struct{}]struct{})
	}
	j.watchers[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

// Unsubscribe removes a channel registered with Subscribe.
func (j *Job) Unsubscribe(ch chan struct{}) {
	j.mu.Lock()
	delete(j.watchers, ch)
	j.mu.Unlock()
}

// notifyLocked wakes every subscriber; callers hold j.mu.
func (j *Job) notifyLocked() {
	for ch := range j.watchers {
		select {
		case ch <- struct{}{}:
		default: // watcher already has a pending wake-up
		}
	}
}

// appendEvent buffers one complete JSONL event line.
func (j *Job) appendEvent(line []byte) {
	j.mu.Lock()
	j.events = append(j.events, line)
	j.notifyLocked()
	j.mu.Unlock()
	j.store.notify(j)
}

// setRunning marks the job started; it reports false when the job is
// already terminal (cancelled while queued), in which case the worker
// must skip it.
func (j *Job) setRunning() bool {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.notifyLocked()
	j.mu.Unlock()
	j.store.notify(j)
	return true
}

// finish records the terminal transition with the rendered result (done
// only) or failure message.
func (j *Job) finish(status Status, errMsg string, result []byte) {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return
	}
	j.result = result
	j.finishLocked(status, errMsg)
	j.mu.Unlock()
	j.store.notify(j)
	j.store.end(j)
}

func (j *Job) finishLocked(status Status, errMsg string) {
	j.status = status
	j.err = errMsg
	j.finished = time.Now()
	j.notifyLocked()
}

// eventLog adapts the job's append-only event buffer to the io.Writer
// the JSONL sink expects, splitting the stream back into whole lines so
// replays are byte-identical to a local -emit file. The run's emitter
// serialises sink calls, so Write never runs concurrently.
type eventLog struct {
	job *Job
	buf bytes.Buffer
}

func (l *eventLog) Write(p []byte) (int, error) {
	l.buf.Write(p)
	for {
		b := l.buf.Bytes()
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := make([]byte, i+1)
		copy(line, b[:i+1])
		l.buf.Next(i + 1)
		l.job.appendEvent(line)
	}
}
