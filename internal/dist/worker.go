package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"hmscs/internal/par"
	"hmscs/internal/run"
	"hmscs/internal/sim"
	"hmscs/internal/telemetry"
)

// workerSpecCache bounds the worker's parsed-program cache; a worker
// typically alternates between a handful of specs.
const workerSpecCache = 8

// Worker is the pull side of the protocol: it registers with a
// coordinator, long-polls for unit leases across Procs parallel slots,
// executes each unit with the engine, and streams results back.
// Workers are stateless — everything needed to run a unit is (spec
// bytes fetched by hash, stage, point, rep) — so killing one at any
// instant is safe: its leases expire and the units are re-offered.
type Worker struct {
	// Connect is the coordinator's base URL (e.g. http://host:8080).
	Connect string
	// Procs is how many units run concurrently (min 1).
	Procs int
	// Name is an optional label shown in GET /dist/workers.
	Name string
	// HC overrides the HTTP client (tests); nil uses a default with no
	// overall timeout (lease calls long-poll).
	HC *http.Client
	// Logf, when set, receives progress lines (the binary wires log.Printf).
	Logf func(format string, args ...any)

	// id is the public id the coordinator lists, token the credential
	// every lease, heartbeat and completion quotes.
	mu    sync.Mutex
	id    string
	token string
	ttl   time.Duration
	poll  time.Duration

	progMu sync.Mutex
	progs  map[string]*run.Program
	order  []string
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) client() *http.Client {
	if w.HC != nil {
		return w.HC
	}
	return http.DefaultClient
}

// Run registers and serves until the context ends. Registration and
// completions retry with backoff; a hard kill (process death) is the
// no-op case the protocol is built for, so Run makes no attempt at a
// graceful handover — units in flight when the context ends are simply
// abandoned and re-offered by the coordinator after one lease TTL.
func (w *Worker) Run(ctx context.Context) error {
	if w.Procs < 1 {
		w.Procs = 1
	}
	if err := w.register(ctx); err != nil {
		return err
	}
	w.mu.Lock()
	id := w.id
	w.mu.Unlock()
	w.logf("registered with %s as %s (%d slots)", w.Connect, id, w.Procs)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.heartbeatLoop(ctx)
	}()
	for i := 0; i < w.Procs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.slotLoop(ctx)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// credential returns the token of the current registration.
func (w *Worker) credential() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.token
}

// register attaches to the coordinator, retrying with backoff until the
// context ends (a worker started before its server is normal).
func (w *Worker) register(ctx context.Context) error {
	backoff := 200 * time.Millisecond
	for {
		var resp registerResponse
		err := w.post(ctx, "/dist/workers", registerRequest{Name: w.Name, Procs: w.Procs}, &resp)
		if err == nil && resp.Token != "" {
			w.mu.Lock()
			w.id, w.token = resp.Worker, resp.Token
			w.ttl = time.Duration(resp.LeaseTTLMS) * time.Millisecond
			w.poll = time.Duration(resp.PollMS) * time.Millisecond
			if w.poll <= 0 {
				w.poll = time.Second
			}
			w.mu.Unlock()
			return nil
		}
		if err == nil {
			err = fmt.Errorf("dist: coordinator returned no worker token")
		}
		w.logf("register: %v (retrying in %s)", err, backoff)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// reregister re-attaches after an unknown-worker answer (the
// coordinator restarted). stale, the token that was refused, guards the
// race between slots: only the first observer re-registers.
func (w *Worker) reregister(ctx context.Context, stale string) {
	w.mu.Lock()
	current := w.token
	w.mu.Unlock()
	if current != stale {
		return // another goroutine already re-registered
	}
	w.register(ctx) //nolint:errcheck // only fails when ctx ends
}

// heartbeatLoop keeps the worker (and all its leases) alive.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		w.mu.Lock()
		poll := w.poll
		w.mu.Unlock()
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return
		}
		token := w.credential()
		var resp statusResponse
		if err := w.post(ctx, "/dist/heartbeat", heartbeatRequest{Token: token}, &resp); err == nil &&
			resp.Status == statusUnknownWorker {
			w.reregister(ctx, token)
		}
	}
}

// slotLoop is one execution slot: lease a run of units, run it,
// deliver its results in one completion.
func (w *Worker) slotLoop(ctx context.Context) {
	for ctx.Err() == nil {
		token := w.credential()
		w.mu.Lock()
		poll := w.poll
		w.mu.Unlock()
		var resp leaseResponse
		err := w.post(ctx, "/dist/lease", leaseRequest{Token: token, Max: maxLeaseUnits, WaitMS: poll.Milliseconds()}, &resp)
		switch {
		case err != nil:
			select {
			case <-time.After(poll):
			case <-ctx.Done():
			}
		case resp.Status == statusUnknownWorker:
			w.reregister(ctx, token)
		default:
			for _, l := range resp.Leases {
				w.execute(ctx, l)
			}
		}
	}
}

// execute runs one leased run's units in order and delivers their
// results or errors in one completion.
func (w *Worker) execute(ctx context.Context, l Lease) {
	req := completeRequest{Lease: l.ID, Results: make([]unitOutcome, len(l.Units))}
	for i, u := range l.Units {
		if ctx.Err() != nil {
			break
		}
		res, st, setup, busy, err := w.runUnit(ctx, l.Spec, u)
		req.SetupNS += setup.Nanoseconds()
		req.BusyNS += busy.Nanoseconds()
		out := unitOutcome{Unit: i}
		if err != nil {
			out.Error = err.Error()
			w.logf("unit %s[%d,%d]: %v", u.Stage, u.Point, u.Rep, err)
		} else {
			out.Result = res
			out.Stats = &st
		}
		req.Results[i] = out
	}
	if ctx.Err() != nil {
		// Dying mid-run: deliver nothing. The lease expires and the
		// coordinator re-offers the units; completing here would race the
		// process's death anyway.
		return
	}
	req.Token = w.credential()
	w.deliver(ctx, req)
}

// deliver posts a run's completion. One whose body would exceed
// maxBodyBytes (long result samples) goes in halves, each answering its
// own units, so the coordinator accepts every part. Completions retry
// briefly: losing one only costs a reassignment, but delivering saves
// the whole run from being re-run.
func (w *Worker) deliver(ctx context.Context, req completeRequest) {
	data, err := json.Marshal(req)
	if err != nil {
		w.logf("lease %s: %v", req.Lease, err)
		return
	}
	if len(data) > maxBodyBytes && len(req.Results) > 1 {
		half := len(req.Results) / 2
		first, rest := req, req
		first.Results, rest.Results = req.Results[:half], req.Results[half:]
		rest.BusyNS, rest.SetupNS = 0, 0
		w.deliver(ctx, first)
		w.deliver(ctx, rest)
		return
	}
	var resp statusResponse
	for attempt := 0; attempt < 3; attempt++ {
		if err := w.postRaw(ctx, "/dist/complete", data, &resp); err == nil {
			return
		}
		select {
		case <-time.After(200 * time.Millisecond):
		case <-ctx.Done():
			return
		}
	}
}

// runUnit derives the unit from the spec and executes it, returning
// the time spent on the spec's program and stage (setup: the start-up of
// a spec this worker had not cached) and in the engine (busy). The
// coordinator's seed travels in the lease, and the worker re-derives it
// from the spec; a mismatch means coordinator/worker version skew and
// fails loudly rather than running different physics. A panic becomes
// the unit's error, which fails the job and leaves the worker serving.
func (w *Worker) runUnit(ctx context.Context, hash string, u WireUnit) (_ *sim.Result, _ telemetry.SimStats, setup, busy time.Duration, err error) {
	defer par.Recover(&err)
	start := time.Now()
	prog, err := w.program(ctx, hash)
	if err != nil {
		return nil, telemetry.SimStats{}, time.Since(start), 0, err
	}
	stage, err := prog.StageCtx(ctx, u.Stage)
	if err != nil {
		return nil, telemetry.SimStats{}, time.Since(start), 0, err
	}
	cfg, opts, err := stage.Unit(u.Point, u.Rep)
	setup = time.Since(start)
	if err != nil {
		return nil, telemetry.SimStats{}, setup, 0, err
	}
	if opts.Seed != u.Seed {
		return nil, telemetry.SimStats{}, setup, 0, fmt.Errorf(
			"dist: seed mismatch for unit %s[%d,%d]: leased %d, derived %d (coordinator/worker version skew)",
			u.Stage, u.Point, u.Rep, u.Seed, opts.Seed)
	}
	col := telemetry.NewCollector()
	opts.Stats = col
	start = time.Now()
	res, err := stage.Engine.Run(ctx, u.Point, u.Rep, cfg, opts)
	busy = time.Since(start)
	st, _ := col.Snapshot()
	return res, st, setup, busy, err
}

// program fetches and caches the parsed unit program for a spec hash.
func (w *Worker) program(ctx context.Context, hash string) (*run.Program, error) {
	w.progMu.Lock()
	if p := w.progs[hash]; p != nil {
		w.progMu.Unlock()
		return p, nil
	}
	w.progMu.Unlock()

	data, err := w.get(ctx, "/dist/specs/"+hash)
	if err != nil {
		return nil, err
	}
	spec, err := run.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("dist: spec %s: %w", hash, err)
	}
	prog, err := run.NewProgram(spec)
	if err != nil {
		return nil, fmt.Errorf("dist: spec %s: %w", hash, err)
	}
	w.progMu.Lock()
	defer w.progMu.Unlock()
	if w.progs == nil {
		w.progs = make(map[string]*run.Program)
	}
	if w.progs[hash] == nil {
		w.progs[hash] = prog
		w.order = append(w.order, hash)
		for len(w.order) > workerSpecCache {
			delete(w.progs, w.order[0])
			w.order = w.order[1:]
		}
	}
	return w.progs[hash], nil
}

func (w *Worker) post(ctx context.Context, path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return w.postRaw(ctx, path, data, out)
}

func (w *Worker) postRaw(ctx context.Context, path string, data []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimRight(w.Connect, "/")+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dist: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, out)
}

func (w *Worker) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(w.Connect, "/")+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dist: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}
