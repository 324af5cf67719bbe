package serve

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"hmscs/internal/run"
)

// Store is the watchable job registry: jobs are added at submission,
// listed in creation order, fetched by ID, and observed through Watch
// channels that receive a JobInfo snapshot on every status transition
// and event append — the northbound feed a dashboard or a distributed
// sweep coordinator would consume. It keeps every queued and running
// job and the maxTerminalJobs that ended last; an evicted job's ID is
// unknown from then on.
type Store struct {
	mu   sync.Mutex
	jobs map[string]*Job
	// order holds the retained jobs in creation order; ended holds the
	// terminal ones in the order they ended.
	order    []*Job
	ended    []*Job
	nextID   int
	watchers map[chan JobInfo]struct{}
}

// maxTerminalJobs bounds the finished jobs a store retains. Each one
// holds its event stream and report, so without a bound a resident
// server's memory grows with its request count. A client reads a job
// soon after it ends, and resubmitting the spec replays it from the
// outcome cache, so only the recent ones are worth keeping; 1024 is the
// default queue depth, so a full queue of jobs stays readable after all
// of it finishes.
const maxTerminalJobs = 1024

// NewStore returns an empty job store.
func NewStore() *Store {
	return &Store{
		jobs:     make(map[string]*Job),
		watchers: make(map[chan JobInfo]struct{}),
	}
}

// add registers a new job for the (already normalized) spec. A cached
// job is born done with the recorded stream and result; a live one
// starts queued under the given cancellable context.
func (st *Store) add(spec *run.Experiment, hash string, ctx context.Context, cancel context.CancelFunc, cached *cacheEntry) *Job {
	st.mu.Lock()
	st.nextID++
	j := &Job{
		id:      fmt.Sprintf("j%06d", st.nextID),
		hash:    hash,
		spec:    spec,
		store:   st,
		ctx:     ctx,
		cancel:  cancel,
		status:  StatusQueued,
		created: time.Now(),
	}
	if cached != nil {
		j.cached = true
		j.status = StatusDone
		j.events = cached.events
		j.result = cached.result
		j.finished = j.created
	}
	st.jobs[j.id] = j
	st.order = append(st.order, j)
	if cached != nil {
		st.endLocked(j)
	}
	st.mu.Unlock()
	st.notify(j)
	return j
}

// Get returns the job with the given ID.
func (st *Store) Get(id string) (*Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// List snapshots every retained job's info in creation order.
func (st *Store) List() []JobInfo {
	st.mu.Lock()
	jobs := slices.Clone(st.order)
	st.mu.Unlock()
	infos := make([]JobInfo, len(jobs))
	for i, j := range jobs {
		infos[i] = j.Info()
	}
	return infos
}

// end records that j reached a terminal status; each job ends once.
func (st *Store) end(j *Job) {
	st.mu.Lock()
	st.endLocked(j)
	st.mu.Unlock()
}

// endLocked records j's end and evicts the job that ended first once
// more than maxTerminalJobs are retained. Queued and running jobs are
// never evicted.
func (st *Store) endLocked(j *Job) {
	st.ended = append(st.ended, j)
	if len(st.ended) <= maxTerminalJobs {
		return
	}
	old := st.ended[0]
	st.ended[0] = nil // the backing array must not keep it alive
	st.ended = st.ended[1:]
	delete(st.jobs, old.id)
	if i := slices.Index(st.order, old); i >= 0 {
		st.order = slices.Delete(st.order, i, i+1)
	}
}

// Watch returns a channel of job snapshots, one per transition or event
// append across the whole store, delivered best-effort: a watcher that
// falls more than watchBuffer updates behind loses the oldest ones (the
// terminal snapshot can always be re-read with Get). The channel closes
// when ctx is cancelled.
func (st *Store) Watch(ctx context.Context) <-chan JobInfo {
	ch := make(chan JobInfo, watchBuffer)
	st.mu.Lock()
	st.watchers[ch] = struct{}{}
	st.mu.Unlock()
	go func() {
		<-ctx.Done()
		st.mu.Lock()
		delete(st.watchers, ch)
		st.mu.Unlock()
		close(ch)
	}()
	return ch
}

// watchBuffer bounds a Watch channel's backlog.
const watchBuffer = 256

// notify fans a job's current snapshot out to every store watcher.
func (st *Store) notify(j *Job) {
	st.mu.Lock()
	if len(st.watchers) == 0 {
		st.mu.Unlock()
		return
	}
	info := j.Info()
	for ch := range st.watchers {
		select {
		case ch <- info:
		default: // slow watcher: drop rather than stall the run
		}
	}
	st.mu.Unlock()
}
