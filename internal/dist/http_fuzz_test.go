package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hmscs/internal/run"
)

// FuzzDistHTTP posts arbitrary bodies to the worker protocol's POST
// endpoints. Nothing may panic; a body that does not decode as the
// endpoint's request is answered 400 and every other one 200; and no
// request, not knowing the holder's token, may resolve or release the
// unit a registered worker holds — not even one quoting its public id
// and lease id.
func FuzzDistHTTP(f *testing.F) {
	coord := NewCoordinator(time.Minute)
	f.Cleanup(coord.Close)
	mux := http.NewServeMux()
	coord.Mount(mux)
	holder := coord.Register("holder", 1)
	off := &offer{hash: "h", unit: WireUnit{Stage: run.StageSim}, done: make(chan struct{}), resolved: make(chan outcome, 1)}
	go func() { coord.offers <- off }()
	leases, ok := coord.Lease(holder.Token, 1, 10*time.Second)
	if !ok || len(leases) != 1 {
		f.Fatalf("holder leased %v (ok %v), want one unit", leases, ok)
	}
	endpoints := []struct {
		path string
		req  func() any
	}{
		{"/dist/workers", func() any { return new(registerRequest) }},
		{"/dist/lease", func() any { return new(leaseRequest) }},
		{"/dist/complete", func() any { return new(completeRequest) }},
		{"/dist/heartbeat", func() any { return new(heartbeatRequest) }},
	}
	for _, seed := range []struct {
		endpoint uint8
		body     string
	}{
		{0, `{"name":"w","procs":2}`},
		{0, `{"procs":"many"}`},
		{1, `{"token":"x","max":1,"wait_ms":1}`},
		{1, `{"worker":"w1","max":-3,"wait_ms":-1}`},
		{2, fmt.Sprintf(`{"worker":%q,"token":%q,"lease":%q,"result":{"throughput":1e9}}`, holder.Worker, holder.Worker, leases[0].ID)},
		{2, `{"token":"","lease":"","error":"boom"}`},
		{2, `{"result":{"latency":{"n":"x"}}}`},
		{3, `{"token":null}`},
		{3, `{`},
		{3, `[]`},
		{1, `null`},
	} {
		f.Add(seed.endpoint, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		ep := endpoints[int(endpoint)%len(endpoints)]
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(body)))
		want := http.StatusOK
		if json.Unmarshal(body, ep.req()) != nil {
			want = http.StatusBadRequest
		}
		if rec.Code != want {
			t.Fatalf("POST %s %q answered %d, want %d: %s", ep.path, body, rec.Code, want, rec.Body)
		}
		select {
		case out := <-off.resolved:
			t.Fatalf("POST %s %q resolved the holder's unit: %+v", ep.path, body, out)
		default:
		}
		if n := coord.LeasedUnits(); n != 1 {
			t.Fatalf("POST %s %q left %d units leased, want the holder's one", ep.path, body, n)
		}
	})
}
