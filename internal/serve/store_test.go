package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hmscs/internal/run"
)

// TestStoreBoundsTerminalJobs submits one cached spec maxTerminalJobs+100
// times from several clients while another job runs. The listing must
// stay within the bound plus the live job, the first job must be gone
// from every /jobs/{id} route and the newest present, and the running
// job must survive.
func TestStoreBoundsTerminalJobs(t *testing.T) {
	srv := New(Config{Parallelism: 1, MaxJobs: 1})
	defer srv.Close()
	h := srv.Handler()
	get := func(method, path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec.Code
	}
	waitTerminal := func(j *Job) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !j.Status().Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("job %s did not finish: %s", j.ID(), j.Status())
			}
			time.Sleep(time.Millisecond)
		}
	}

	cached := run.NewExperiment(run.KindAnalyze)
	first, err := srv.Submit(cached)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(first)
	if first.Status() != StatusDone {
		t.Fatalf("first job ended %s", first.Status())
	}

	orig := runExperiment
	runExperiment = func(ctx context.Context, _ *run.Experiment, _ run.Options) (*run.Outcome, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	defer func() { runExperiment = orig }()
	blocker := run.NewExperiment(run.KindAnalyze)
	blocker.Run.Seed = 99
	running, err := srv.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	for running.Status() != StatusRunning {
		time.Sleep(time.Millisecond)
	}

	// Four clients submit at once, so evictions race the listing.
	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < (maxTerminalJobs+100)/clients; i++ {
				j, err := srv.Submit(cached)
				if err != nil {
					t.Error(err)
					return
				}
				if !j.Info().Cached {
					t.Error("resubmitted spec missed the cache")
					return
				}
				if n := len(srv.Store().List()); n > maxTerminalJobs+1 {
					t.Errorf("the store lists %d jobs, want at most %d", n, maxTerminalJobs+1)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	newest, err := srv.Submit(cached)
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range []struct{ method, suffix string }{
		{http.MethodGet, ""}, {http.MethodGet, "/spec"}, {http.MethodGet, "/events"},
		{http.MethodGet, "/result"}, {http.MethodDelete, ""},
	} {
		if code := get(route.method, "/jobs/"+first.ID()+route.suffix); code != http.StatusNotFound {
			t.Errorf("%s /jobs/%s%s on an evicted job answered %d, want 404", route.method, first.ID(), route.suffix, code)
		}
		if code := get(route.method, "/jobs/"+newest.ID()+route.suffix); code != http.StatusOK {
			t.Errorf("%s /jobs/%s%s on the newest job answered %d, want 200", route.method, newest.ID(), route.suffix, code)
		}
	}
	if code := get(http.MethodGet, "/jobs/"+running.ID()); code != http.StatusOK || running.Status() != StatusRunning {
		t.Fatalf("the running job answered %d with status %s after %d cached submissions", code, running.Status(), maxTerminalJobs+100)
	}

	running.Cancel()
	waitTerminal(running)
	if n := len(srv.Store().List()); n > maxTerminalJobs {
		t.Fatalf("with every job ended the store lists %d, want at most %d", n, maxTerminalJobs)
	}
}
