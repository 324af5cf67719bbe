package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hmscs/internal/run"
)

// FuzzJobsPOST posts arbitrary bodies to POST /jobs. The server must
// answer 2xx or 4xx, never 5xx, and never panic; every job it accepts is
// cancelled through DELETE /jobs/{id} and drained to its terminal state
// before the iteration ends. The run itself is replaced by one that waits
// for its cancellation: one replication is not cancellable mid-run, so an
// accepted spec with a huge message count would otherwise outlast the
// iteration. Seeded with every checked-in experiment spec.
func FuzzJobsPOST(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "experiments", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, body := range []string{
		``, `{`, `null`, `[]`, `{"kind":"nope"}`, `{"kind":"simulate","unknown":1}`,
		`{"kind":"simulate","run":{"messages":-1}}`,
		`{"kind":"simulate","run":{"messages":1000000000000,"reps":1000000}}`,
		`{"kind":"simulate","simulate":{"trace_out":"/tmp/x.csv"}}`,
	} {
		f.Add([]byte(body))
	}
	orig := runExperiment
	runExperiment = func(ctx context.Context, _ *run.Experiment, _ run.Options) (*run.Outcome, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	f.Cleanup(func() { runExperiment = orig })
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := New(Config{Parallelism: 1, MaxJobs: 1})
		defer srv.Close()
		h := srv.Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		switch {
		case rec.Code >= 400 && rec.Code < 500:
			if n := len(srv.Store().List()); n != 0 {
				t.Fatalf("POST /jobs %q answered %d but registered %d jobs", body, rec.Code, n)
			}
			return
		case rec.Code < 200 || rec.Code >= 300:
			t.Fatalf("POST /jobs %q answered %d, want 2xx or 4xx: %s", body, rec.Code, rec.Body)
		}
		var info JobInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || info.ID == "" {
			t.Fatalf("POST /jobs %q answered %d with %q, want a job snapshot (%v)", body, rec.Code, rec.Body, err)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/jobs/"+info.ID, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("DELETE /jobs/%s answered %d: %s", info.ID, rec.Code, rec.Body)
		}
		job, ok := srv.Store().Get(info.ID)
		if !ok {
			t.Fatalf("accepted job %s is not in the store", info.ID)
		}
		deadline := time.Now().Add(10 * time.Second)
		for !job.Status().Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("cancelled job %s did not drain: %s", info.ID, job.Status())
			}
			time.Sleep(time.Millisecond)
		}
		if s := job.Status(); s != StatusCancelled {
			t.Fatalf("cancelled job %s ended %s", info.ID, s)
		}
	})
}
