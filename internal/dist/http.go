package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Protocol bounds: a leased run holds at most maxLeaseUnits units and a
// lease request long-polls at most maxLeaseWait; request bodies are a
// few hundred bytes except completions, which carry their units'
// results.
const (
	maxLeaseUnits = 16
	maxLeaseWait  = 30 * time.Second
	maxBodyBytes  = 16 << 20
)

// Mount attaches the worker protocol under /dist/ (see docs/SERVER.md):
//
//	POST /dist/workers      register    → {worker, token, lease_ttl_ms, poll_ms}
//	POST /dist/lease        long-poll   → {leases: [{id, spec, units: [unit]}]}
//	POST /dist/complete     deliver     → {status}  (one per run: results: [{unit, result | error}])
//	POST /dist/heartbeat    keep-alive  → {status}
//	GET  /dist/specs/{hash} fetch spec  → experiment JSON
//	GET  /dist/workers      inspect     → [WorkerInfo]
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /dist/workers", c.handleRegister)
	mux.HandleFunc("POST /dist/lease", c.handleLease)
	mux.HandleFunc("POST /dist/complete", c.handleComplete)
	mux.HandleFunc("POST /dist/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /dist/specs/{hash}", c.handleSpec)
	mux.HandleFunc("GET /dist/workers", c.handleWorkers)
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // the connection is the only failure mode
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !readJSON(w, r, &req) {
		return
	}
	writeJSON(w, http.StatusOK, c.Register(req.Name, req.Procs))
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Max > maxLeaseUnits {
		req.Max = maxLeaseUnits
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait <= 0 || wait > maxLeaseWait {
		wait = maxLeaseWait
	}
	leases, known := c.Lease(r.Context(), req.Token, req.Max, wait)
	if r.Context().Err() != nil {
		// The poller left: nobody will run what it was granted, so the
		// units go straight back for re-offer instead of waiting out a
		// lease TTL.
		c.abandon(leases)
		return
	}
	if !known {
		writeJSON(w, http.StatusOK, leaseResponse{Status: statusUnknownWorker})
		return
	}
	writeJSON(w, http.StatusOK, leaseResponse{Leases: leases})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !readJSON(w, r, &req) {
		return
	}
	writeJSON(w, http.StatusOK, statusResponse{Status: c.Complete(req)})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	writeJSON(w, http.StatusOK, statusResponse{Status: c.Heartbeat(req.Token)})
}

func (c *Coordinator) handleSpec(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	data, ok := c.Spec(hash)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("dist: no spec %q registered", hash)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Workers())
}
