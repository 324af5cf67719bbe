package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzDistHTTP posts arbitrary bodies to the worker protocol's POST
// endpoints, batched lease requests and completions among them. Nothing
// may panic; a body that does not decode as the endpoint's request is
// answered 400 and every other one 200; and no request, not knowing the
// holder's token, may resolve or release either unit of the run a
// registered worker holds — not even one quoting its public id and
// lease id.
func FuzzDistHTTP(f *testing.F) {
	coord := NewCoordinator(time.Minute)
	f.Cleanup(coord.Close)
	mux := http.NewServeMux()
	coord.Mount(mux)
	holder := coord.Register("holder", 1)
	offs := []*offer{newTestOffer("h"), newTestOffer("h")}
	for _, off := range offs {
		coord.enqueue(off)
	}
	leases, ok := coord.Lease(context.Background(), holder.Token, 2, 10*time.Second)
	if !ok || len(leases) != 1 || len(leases[0].Units) != 2 {
		f.Fatalf("holder leased %v (ok %v), want one run of two units", leases, ok)
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
		{1, `{"token":"x","max":100000,"wait_ms":1}`},
		{2, fmt.Sprintf(`{"worker":%q,"token":%q,"lease":%q,"results":[{"unit":0,"result":{"throughput":1e9}},{"unit":1,"error":"x"}]}`, holder.Worker, holder.Worker, leases[0].ID)},
		{2, fmt.Sprintf(`{"token":"","lease":%q,"busy_ns":-1,"setup_ns":9e18,"results":[{"unit":1},{"unit":-1},{"unit":7}]}`, leases[0].ID)},
		{2, `{"token":"","lease":"","results":[{"unit":0,"error":"boom"}]}`},
		{2, `{"results":[{"unit":0,"result":{"latency":{"n":"x"}}}]}`},
		{2, `{"results":[{"unit":0,"result":{"measured":5,"generated":1,"centers":[{"served":-1}]}}]}`},
		{2, fmt.Sprintf(`{"token":%q,"lease":%q,"results":[{"unit":0,"result":{"measured":3,"generated":3,"slice_sums":[0.5,1e308],"slice_counts":[2,1,-1]}}]}`, "x", leases[0].ID)},
		{2, `{"results":[{"unit":0,"result":{"slice_sums":[1,"x"],"slice_counts":[1.5]}}]}`},
		{2, `{"results":null}`},
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
		for i, off := range offs {
			select {
			case out := <-off.resolved:
				t.Fatalf("POST %s %q resolved the holder's unit %d: %+v", ep.path, body, i, out)
			default:
			}
		}
		if n := coord.LeasedUnits(); n != 2 {
			t.Fatalf("POST %s %q left %d units leased, want the holder's two", ep.path, body, n)
		}
	})
}
