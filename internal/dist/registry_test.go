package dist_test

import (
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"hmscs/internal/run"
)

// gate fails every request while closed, so an in-process worker falls
// silent without exiting; opening it lets the worker through again.
type gate struct {
	rt     http.RoundTripper
	closed atomic.Bool
}

func (g *gate) RoundTrip(req *http.Request) (*http.Response, error) {
	if g.closed.Load() {
		return nil, errors.New("gate closed")
	}
	return g.rt.RoundTrip(req)
}

// TestRegistryForgetsSilentWorkers: with a short lease TTL, thousands of
// registrations that never speak again drain from the registry while a
// heartbeating worker stays, and an in-process worker that was cut off
// until the registry forgot it registers again and completes units of a
// job whose report still matches a local run.
func TestRegistryForgetsSilentWorkers(t *testing.T) {
	const ttl = 100 * time.Millisecond
	c := startCluster(t, 0, ttl)
	coord := c.srv.Dist()
	for range 5000 {
		coord.Register("silent", 1)
	}
	beating := coord.Register("beating", 1)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				coord.Heartbeat(beating.Token)
			}
		}
	}()
	g := &gate{rt: http.DefaultTransport}
	c.addWorker(t, "gated", &http.Client{Transport: g})
	c.waitLive(t, 2)
	var gatedID string
	for _, w := range coord.Workers() {
		if w.Name == "gated" {
			gatedID = w.ID
		}
	}
	g.closed.Store(true)

	deadline := time.Now().Add(30 * time.Second)
	for {
		ws := coord.Workers()
		if len(ws) == 1 && ws[0].ID == beating.Worker {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry still holds %d workers, want only the heartbeating one", len(ws))
		}
		time.Sleep(10 * time.Millisecond)
	}

	g.closed.Store(false)
	c.waitLive(t, 2)
	for _, w := range coord.Workers() {
		if w.Name == "gated" && w.ID == gatedID {
			t.Fatalf("the forgotten worker came back under its old id %s", gatedID)
		}
	}
	e := run.NewExperiment(run.KindSweep)
	e.Sweep.Var = "clusters"
	e.Sweep.Ints = "1,2,4,8"
	e.Run.Messages = 10000
	e.Run.Reps = 16 // units long and many enough for a run to amortise a grant
	want, _, _ := localRun(t, e)
	before := coord.Stats().Completed
	if report, _, _ := c.submit(t, e); report != want {
		t.Error("report differs from local run")
	}
	if coord.Stats().Completed == before {
		t.Error("the re-registered worker completed no unit")
	}
}
