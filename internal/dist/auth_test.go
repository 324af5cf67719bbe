package dist

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// postJSON posts body to the coordinator's path and decodes the answer.
func postJSON(t *testing.T, url string, body any) map[string]any {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestImpersonationOverHTTP: /dist/* shares its listener with /jobs, and
// GET /dist/workers lists the fleet. Nothing that list shows may let a
// caller act as a worker: an unregistered caller that quotes a listed
// worker and even its lease id must not resolve the unit, or a forged
// value would be folded into the job and cached as an exact answer. Only
// the holder's own credential resolves it.
func TestImpersonationOverHTTP(t *testing.T) {
	coord := NewCoordinator(time.Minute)
	defer coord.Close()
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	reg := postJSON(t, ts.URL+"/dist/workers", map[string]any{"name": "honest", "procs": 1})
	off := newTestOffer("h")
	coord.enqueue(off)
	// The holder quotes what registration gave it.
	cred := func(extra map[string]any) map[string]any {
		extra["worker"], extra["token"] = reg["worker"], reg["token"]
		return extra
	}
	granted := postJSON(t, ts.URL+"/dist/lease", cred(map[string]any{"max": 1, "wait_ms": 10000}))
	leases, _ := granted["leases"].([]any)
	if len(leases) != 1 {
		t.Fatalf("holder leased %v, want one unit", granted)
	}
	leaseID := leases[0].(map[string]any)["id"]

	resp, err := http.Get(ts.URL + "/dist/workers")
	if err != nil {
		t.Fatal(err)
	}
	listing, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if token, _ := reg["token"].(string); token != "" && strings.Contains(string(listing), token) {
		t.Fatalf("GET /dist/workers shows the worker's token: %s", listing)
	}
	var workers []map[string]any
	if err := json.Unmarshal(listing, &workers); err != nil || len(workers) != 1 {
		t.Fatalf("worker list %s (%v), want one worker", listing, err)
	}
	listed := workers[0]["id"]

	forged := map[string]any{"lease": leaseID, "results": []any{map[string]any{"unit": 0, "result": map[string]any{"throughput": 1e9}}}}
	for _, as := range []string{"worker", "token"} {
		forged[as] = listed
		answer := postJSON(t, ts.URL+"/dist/complete", forged)
		select {
		case out := <-off.resolved:
			t.Fatalf("a caller quoting the listed id as %q resolved the unit (answered %v): %+v", as, answer, out)
		default:
		}
		if answer["status"] == statusOK {
			t.Errorf("a caller quoting the listed id as %q was answered %v", as, answer)
		}
		delete(forged, as)
	}

	answer := postJSON(t, ts.URL+"/dist/complete", cred(map[string]any{
		"lease": leaseID, "results": []any{map[string]any{"unit": 0, "result": map[string]any{"throughput": 42}}},
	}))
	if answer["status"] != statusOK {
		t.Fatalf("holder's completion answered %v", answer)
	}
	if out := <-off.resolved; out.err != nil || out.res.Throughput != 42 {
		t.Fatalf("holder's completion resolved %+v, want its result", out)
	}
}
