// Package dist is the distributed unit fan-out subsystem: a
// coordinator that decomposes submitted experiments into
// self-describing simulation units, a pull-based HTTP worker protocol
// (register → lease → complete, with heartbeats), and a job-side
// executor that plugs into run.Options.Units so a resident server
// transparently spreads (point × replication) work across attached
// hmscs-worker processes.
//
// The correctness contract is inherited, not invented: a unit is a pure
// function of (normalized spec, stage, point, replication) — see
// run.Program — and results merge by unit index, so the outcome of a
// distributed run is byte-identical to a local run.Run of the same spec
// regardless of worker count, completion order, or mid-run worker
// death. Leases carry deadlines; a worker that misses its heartbeats
// simply has its units re-offered, which is safe precisely because
// units are deterministic and merging is positional.
package dist

import (
	"encoding/json"
	"fmt"
	"math"

	"hmscs/internal/sim"
	"hmscs/internal/telemetry"
)

// WireUnit addresses one simulation unit of a registered spec. Seed is
// the coordinator-derived replication seed, shipped redundantly so a
// worker can cross-check its own derivation against the coordinator's
// before running (a mismatch means version skew, which must surface as
// an error rather than as silently different physics).
type WireUnit struct {
	Stage string `json:"stage"`
	Point int    `json:"point"`
	Rep   int    `json:"rep"`
	Seed  uint64 `json:"seed"`
}

// Lease is one granted run: the lease id the completion must quote, the
// spec hash to fetch the experiment by, and the addresses of the run's
// units. A run is one or more units of one spec; its completion answers
// each of them.
type Lease struct {
	ID    string     `json:"id"`
	Spec  string     `json:"spec"`
	Units []WireUnit `json:"units"`
}

// registerRequest / registerResponse are the POST /dist/workers bodies.
type registerRequest struct {
	Name  string `json:"name,omitempty"`
	Procs int    `json:"procs"`
}

type registerResponse struct {
	// Worker is the public id GET /dist/workers lists. Token is the
	// worker's credential: 128 random bits that only this response
	// carries, and every lease, heartbeat and completion must quote.
	Worker string `json:"worker"`
	Token  string `json:"token"`
	// LeaseTTLMS is how long a lease lives without a heartbeat; PollMS is
	// the suggested long-poll and heartbeat interval.
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	PollMS     int64 `json:"poll_ms"`
}

// leaseRequest is the POST /dist/lease body: a long-poll for one run of
// up to Max units, waiting at most WaitMS for it.
type leaseRequest struct {
	Token  string `json:"token"`
	Max    int    `json:"max"`
	WaitMS int64  `json:"wait_ms"`
}

type leaseResponse struct {
	// Status is empty on success and "unknown-worker" when the worker
	// must re-register (e.g. after a coordinator restart).
	Status string  `json:"status,omitempty"`
	Leases []Lease `json:"leases"`
}

// completeRequest is the POST /dist/complete body: the verdicts of a
// lease's units, normally all of them in one request. BusyNS is the
// engine time the worker spent on them and SetupNS the time it spent
// fetching and deriving the spec's program and stage (its start-up on a
// spec it had not run).
type completeRequest struct {
	Token   string        `json:"token"`
	Lease   string        `json:"lease"`
	BusyNS  int64         `json:"busy_ns"`
	SetupNS int64         `json:"setup_ns"`
	Results []unitOutcome `json:"results"`
}

// unitOutcome is one unit's verdict: Unit indexes the lease's Units, and
// exactly one of Result and Error is set; Stats is the unit's engine
// record. A result crosses as sim.Result's own JSON: its Welford
// accumulators travel as their state, and Go's JSON float64 round-trip is
// exact (shortest-representation encoding), so a decoded result is
// bit-identical to the worker's, the property every downstream aggregate
// relies on.
type unitOutcome struct {
	Unit   int                 `json:"unit"`
	Error  string              `json:"error,omitempty"`
	Result *sim.Result         `json:"result,omitempty"`
	Stats  *telemetry.SimStats `json:"stats,omitempty"`
}

// statusResponse answers complete and heartbeat: "ok", "stale" (the
// lease is no longer held — expired, duplicated or cancelled — or every
// unit the completion names was already resolved), or "unknown-worker"
// (re-register).
type statusResponse struct {
	Status string `json:"status"`
}

const (
	statusOK            = "ok"
	statusStale         = "stale"
	statusUnknownWorker = "unknown-worker"
)

// heartbeatRequest extends every lease the worker holds.
type heartbeatRequest struct {
	Token string `json:"token"`
}

// WorkerInfo is one attached worker's snapshot (GET /dist/workers): its
// public id, name and counts, never its token.
type WorkerInfo struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	Procs  int    `json:"procs"`
	Live   bool   `json:"live"`
	Leased int    `json:"leased_units"`
	// UnitsDone, UnitsRejected and BusySeconds are this worker's lifetime
	// accounting — the per-worker detail behind the aggregate
	// hmscs_dist_* families. A rejected unit's result did not fit its
	// stage and ran locally instead.
	UnitsDone     int64   `json:"units_done"`
	UnitsRejected int64   `json:"units_rejected"`
	BusySeconds   float64 `json:"busy_s"`
	// IdleSeconds is the time since the worker was last heard from.
	IdleSeconds float64 `json:"idle_s"`
}

// plausible reports whether r could be some unit's result: every count
// non-negative, every value finite, and no more messages measured than
// generated. Its shape is checked against the unit it answers
// (offer.fits).
func plausible(r *sim.Result) bool {
	lat, hops := r.Latency.State(), r.SwitchHops.State()
	if r.Generated < 0 || r.Measured < 0 || r.Dropped < 0 || r.Rerouted < 0 ||
		lat.N < 0 || hops.N < 0 || r.Measured > r.Generated {
		return false
	}
	finite := func(xs ...float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
		return true
	}
	ok := finite(r.SimTime, r.Throughput, r.EffectiveLambda,
		lat.Mean, lat.M2, lat.Min, lat.Max, hops.Mean, hops.M2, hops.Min, hops.Max) &&
		finite(r.Sample...) && finite(r.SliceSums...)
	for _, c := range r.Centers {
		ok = ok && c.Served >= 0 && finite(c.Utilization, c.MeanQueueLength, c.MaxQueueLength)
	}
	return ok
}

// RoundTripResult is the codec identity check used by tests and the
// repository benchmark: JSON-marshal the result, then unmarshal it.
func RoundTripResult(r *sim.Result) (*sim.Result, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding result: %w", err)
	}
	var out sim.Result
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("dist: decoding result: %w", err)
	}
	return &out, nil
}
