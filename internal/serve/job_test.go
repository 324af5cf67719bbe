package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"hmscs/internal/run"
)

// blockerSeed marks the spec that stubRuns holds until its context ends.
const blockerSeed = 99

// stubRuns replaces the job runner for one test: a spec seeded
// blockerSeed runs until its context ends and then fails, so it keeps
// the worker busy without adding to the cancelled count; any other spec
// runs until the test sends its ending on the returned channel (nil for
// success) or its context ends.
func stubRuns(t *testing.T) chan<- error {
	t.Helper()
	finish := make(chan error)
	orig := runExperiment
	runExperiment = func(ctx context.Context, spec *run.Experiment, _ run.Options) (*run.Outcome, error) {
		if spec.Run.Seed == blockerSeed {
			<-ctx.Done()
			return nil, errors.New("blocker stopped")
		}
		select {
		case err := <-finish:
			return &run.Outcome{}, err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	t.Cleanup(func() { runExperiment = orig })
	return finish
}

// waitStatus polls until j reaches want.
func waitStatus(t *testing.T, j *Job, want Status) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for j.Status() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s", j.ID(), j.Status(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// serveHTTP answers one request through h.
func serveHTTP(h http.Handler, method, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	return rec
}

// TestJobTransitions drives a job down every lifecycle path. For each
// row a /watch subscriber, a job subscriber, Store.List and the terminal
// counters of /metrics see the job's terminal state exactly once, the
// terminal snapshot last. Every row then tries a second terminal
// transition, which must change nothing and notify no one.
func TestJobTransitions(t *testing.T) {
	finish := stubRuns(t)
	rows := []struct {
		name string
		// queued holds the job behind a running blocker; cached submits
		// the spec once first, so the job is born done from the cache.
		queued, cached bool
		// end drives the job to its terminal state; closes is set when
		// it closes the server.
		end    func(srv *Server, h http.Handler, j *Job)
		closes bool
		// want is the job's snapshots on /watch; counts the terminal
		// counters afterwards (the blocker ends failed).
		want   []Status
		counts map[Status]int
	}{{
		name:   "running to done",
		end:    func(*Server, http.Handler, *Job) { finish <- nil },
		want:   []Status{StatusQueued, StatusRunning, StatusDone},
		counts: map[Status]int{StatusDone: 1},
	}, {
		name:   "running to failed",
		end:    func(*Server, http.Handler, *Job) { finish <- errors.New("boom") },
		want:   []Status{StatusQueued, StatusRunning, StatusFailed},
		counts: map[Status]int{StatusFailed: 1},
	}, {
		name:   "running to cancelled",
		end:    func(_ *Server, h http.Handler, j *Job) { serveHTTP(h, http.MethodDelete, "/jobs/"+j.ID()) },
		want:   []Status{StatusQueued, StatusRunning, StatusCancelled},
		counts: map[Status]int{StatusCancelled: 1},
	}, {
		name:   "queued to cancelled by DELETE",
		queued: true,
		end:    func(_ *Server, h http.Handler, j *Job) { serveHTTP(h, http.MethodDelete, "/jobs/"+j.ID()) },
		want:   []Status{StatusQueued, StatusCancelled},
		counts: map[Status]int{StatusCancelled: 1},
	}, {
		name:   "queued to cancelled by Close",
		queued: true,
		end:    func(srv *Server, _ http.Handler, _ *Job) { srv.Close() },
		closes: true,
		want:   []Status{StatusQueued, StatusCancelled},
		counts: map[Status]int{StatusCancelled: 1, StatusFailed: 1},
	}, {
		name:   "born done from the cache",
		cached: true,
		end:    func(*Server, http.Handler, *Job) {},
		want:   []Status{StatusDone},
		counts: map[Status]int{StatusDone: 1},
	}}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			srv := New(Config{Parallelism: 1, MaxJobs: 1})
			if !row.closes {
				defer srv.Close()
			}
			h := srv.Handler()
			ctx, stopWatch := context.WithCancel(context.Background())
			defer stopWatch()
			watch := srv.Store().Watch(ctx)
			submit := func(e *run.Experiment) *Job {
				t.Helper()
				j, err := srv.Submit(e)
				if err != nil {
					t.Fatal(err)
				}
				return j
			}

			spec := run.NewExperiment(run.KindAnalyze)
			if row.queued {
				blocker := spec.Clone()
				blocker.Run.Seed = blockerSeed
				waitStatus(t, submit(blocker), StatusRunning)
			}
			if row.cached {
				first := submit(spec)
				finish <- nil
				waitStatus(t, first, StatusDone)
			}
			j := submit(spec)
			sub := j.Subscribe()
			defer j.Unsubscribe(sub)
			// The subscriber reads the status on subscribing and on each
			// wake-up, as GET /jobs/{id}/events does.
			terminalSeen := 0
			if j.Status().Terminal() {
				terminalSeen++
			}
			if !row.queued && !row.cached {
				waitStatus(t, j, StatusRunning)
			}
			row.end(srv, h, j)
			waitStatus(t, j, row.want[len(row.want)-1])

			before := j.Info()
			for _, to := range []Status{StatusDone, StatusFailed, StatusCancelled} {
				if j.transition(StatusRunning, to, "late", nil, nil) {
					t.Errorf("a second terminal transition to %s was taken", to)
				}
			}
			j.Cancel()
			if after := j.Info(); !reflect.DeepEqual(after, before) {
				t.Errorf("a second terminal transition changed the job:\n%+v\nwas\n%+v", after, before)
			}

			for len(sub) > 0 {
				<-sub
				if j.Status().Terminal() {
					terminalSeen++
				}
			}
			if terminalSeen != 1 {
				t.Errorf("the job subscriber saw the terminal state %d times, want 1", terminalSeen)
			}

			stopWatch()
			var got []Status
			for info := range watch {
				if info.ID == j.ID() {
					got = append(got, info.Status)
				}
			}
			if !slices.Equal(got, row.want) {
				t.Errorf("/watch saw the job as %v, want %v", got, row.want)
			}

			listed := 0
			for _, info := range srv.Store().List() {
				if info.ID == j.ID() {
					listed++
					if info.Status != row.want[len(row.want)-1] {
						t.Errorf("Store.List reports the job %s, want %s", info.Status, row.want[len(row.want)-1])
					}
				}
			}
			if listed != 1 {
				t.Errorf("Store.List lists the job %d times, want 1", listed)
			}

			metrics := "\n" + serveHTTP(h, http.MethodGet, "/metrics").Body.String()
			for _, st := range []Status{StatusDone, StatusFailed, StatusCancelled} {
				line := fmt.Sprintf("\nhmscs_jobs_%s_total %d\n", st, row.counts[st])
				if !strings.Contains(metrics, line) {
					t.Errorf("/metrics lacks %q:%s", strings.TrimSpace(line), metrics)
				}
			}
		})
	}
}

// TestQueueFullLeavesNoJob: a submission refused because the queue is
// full answers 503 and leaves no trace, neither in GET /jobs nor on
// /watch.
func TestQueueFullLeavesNoJob(t *testing.T) {
	stubRuns(t)
	srv := New(Config{Parallelism: 1, MaxJobs: 1, QueueDepth: 1})
	defer srv.Close()
	h := srv.Handler()
	ctx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	watch := srv.Store().Watch(ctx)

	spec := run.NewExperiment(run.KindAnalyze)
	spec.Run.Seed = blockerSeed
	running, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, running, StatusRunning)
	spec.Run.Seed = 1
	queued, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Run.Seed = 2
	data, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(string(data))))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("POST /jobs past the queue bound answered %d, want 503: %s", rec.Code, rec.Body)
	}

	kept := map[string]bool{running.ID(): true, queued.ID(): true}
	var listed []string
	for _, info := range srv.Store().List() {
		listed = append(listed, info.ID+" "+string(info.Status))
	}
	if len(listed) != 2 {
		t.Errorf("GET /jobs lists %v, want only %s and %s", listed, running.ID(), queued.ID())
	}
	stopWatch()
	for info := range watch {
		if !kept[info.ID] {
			t.Errorf("/watch saw the refused submission as %s %s", info.ID, info.Status)
		}
	}
}

// TestWatchDropsOldest: a watcher that falls more than watchBuffer
// snapshots behind loses the oldest ones, so the newest job's terminal
// snapshot still arrives, last.
func TestWatchDropsOldest(t *testing.T) {
	srv := New(Config{Parallelism: 1, MaxJobs: 1})
	defer srv.Close()
	spec := run.NewExperiment(run.KindAnalyze)
	first, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, first, StatusDone)

	ctx, stopWatch := context.WithCancel(context.Background())
	watch := srv.Store().Watch(ctx)
	var ids []string
	for i := 0; i < watchBuffer+10; i++ {
		j, err := srv.Submit(spec) // a cache hit: one snapshot, born done
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}
	stopWatch()
	var got []string
	for info := range watch {
		got = append(got, info.ID)
	}
	if want := ids[len(ids)-watchBuffer:]; !slices.Equal(got, want) {
		t.Fatalf("an unread watcher kept %d snapshots, %s..%s; want the newest %d, %s..%s",
			len(got), got[0], got[len(got)-1], len(want), want[0], want[len(want)-1])
	}
}
