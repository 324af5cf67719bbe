package serve

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"hmscs/internal/run"
	"hmscs/internal/telemetry"
)

// Store is the watchable job registry: jobs are added at submission,
// listed in creation order, fetched by ID, and observed through Watch
// channels that receive a JobInfo snapshot on every status transition
// and event append — the northbound feed a dashboard or a distributed
// sweep coordinator would consume. It keeps every queued and running
// job and the maxTerminalJobs that ended last; an evicted job's ID is
// unknown from then on. The lock order is job, then store: the store
// is told of a job's changes under the job's lock (Job.transition) and
// never takes a job lock while it holds its own.
type Store struct {
	mu   sync.Mutex
	jobs map[string]*Job
	// order holds the retained jobs in creation order; ended holds the
	// terminal ones in the order they ended.
	order    []*Job
	ended    []*Job
	nextID   int
	watchers map[chan JobInfo]struct{}
	// queue is where a live job is born (the server's workers read it);
	// counters counts the executed jobs that ended, by terminal status.
	queue    chan<- *Job
	counters map[Status]*telemetry.Counter
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

// add creates a job for the (already normalized) spec and reports
// whether the store took it. A cached job is born done with the
// recorded stream and result; a live one is born queued under the given
// cancellable context, and is refused, leaving no trace, when the queue
// is full.
func (st *Store) add(spec *run.Experiment, hash string, ctx context.Context, cancel context.CancelFunc, cached *cacheEntry) (*Job, bool) {
	j := &Job{hash: hash, spec: spec, store: st, ctx: ctx, cancel: cancel, created: time.Now()}
	if cached == nil {
		return j, j.transition("", StatusQueued, "", nil, nil)
	}
	j.cached, j.events = true, cached.events
	return j, j.transition("", StatusDone, "", cached.result, nil)
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

// record is the store's half of Job.transition, called under the job's
// lock. A birth enters the store, a queued one only once it is on the
// queue: record reports false, registering nothing, when the queue is
// full. Then the job's snapshot goes to every watcher, and a terminal
// job's end is recorded for retention and counted (a cache hit, which
// did no work, is not).
func (st *Store) record(j *Job, from, to Status) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if from == "" {
		j.id = fmt.Sprintf("j%06d", st.nextID+1)
		if to == StatusQueued {
			select {
			case st.queue <- j:
			default:
				return false
			}
		}
		st.nextID++
		st.jobs[j.id] = j
		st.order = append(st.order, j)
	}
	st.notifyLocked(j.infoLocked)
	if to.Terminal() {
		st.endLocked(j)
		if !j.cached {
			st.counters[to].Inc()
		}
	}
	return true
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

// notify fans a job's snapshot out to every store watcher. The caller
// holds the job's lock; snapshot is built only if someone watches.
func (st *Store) notify(snapshot func() JobInfo) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.notifyLocked(snapshot)
}

// notifyLocked is notify with st.mu held. A slow watcher's full channel
// drops its oldest snapshot rather than the new one or stalling the run.
// Every sender holds st.mu, so once one is dropped the send has room.
func (st *Store) notifyLocked(snapshot func() JobInfo) {
	if len(st.watchers) == 0 {
		return
	}
	info := snapshot()
	for ch := range st.watchers {
		if len(ch) == cap(ch) {
			select {
			case <-ch:
			default: // the watcher took one meanwhile
			}
		}
		ch <- info
	}
}
