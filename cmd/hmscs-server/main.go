// Command hmscs-server is the resident experiment service: a
// long-running daemon that accepts run.Experiment submissions over HTTP
// from many concurrent clients, schedules them on one shared bounded
// worker budget, streams each job's JSONL progress events, and caches
// outcomes keyed by a hash of the normalized spec — identical specs are
// deterministic, so a repeat submission replays the recorded event
// stream and report byte for byte without simulating anything.
//
// Any of the six per-kind binaries becomes a thin remote driver with
// -submit:
//
//	hmscs-server -addr 127.0.0.1:8642 -parallel 8 -jobs 2 &
//	hmscs-figures -what fig4 -submit 127.0.0.1:8642
//	hmscs-plan -slo-latency 2 -submit 127.0.0.1:8642 -emit plan.jsonl
//
// or talk to the API directly (full reference in docs/SERVER.md):
//
//	curl -s -X POST --data-binary @spec.json http://127.0.0.1:8642/jobs
//	curl -sN http://127.0.0.1:8642/jobs/j000001/events
//	curl -s http://127.0.0.1:8642/jobs/j000001/result
//	curl -s http://127.0.0.1:8642/metrics
//
// GET /metrics exposes Prometheus-format counters (runs, cache
// hits/misses, queue depth, engine event totals; see
// docs/OBSERVABILITY.md), and -pprof mounts net/http/pprof under
// /debug/pprof/ for CPU and heap profiles.
//
// SIGINT/SIGTERM shut the service down gracefully: the listener stops
// accepting, open event streams end as their jobs cancel between
// replication units, and the worker pool drains before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hmscs/internal/serve"
)

// Connection timeouts. A client has readHeaderTimeout to send its
// request headers (a slow or stalled client cannot hold a connection
// open indefinitely before the handler runs), and an idle keep-alive
// connection is closed after idleTimeout. There is deliberately no read
// or write timeout: NDJSON event streams and /dist lease long-polls stay
// open for as long as their jobs run.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the handler in the service's HTTP server.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	if err := runMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hmscs-server:", err)
		os.Exit(1)
	}
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("hmscs-server", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8642", "listen address")
	parallel := fs.Int("parallel", 0, "total simulation worker budget shared by all running jobs (0 = all cores)")
	jobs := fs.Int("jobs", 2, "jobs running concurrently; queued jobs start in submission order")
	cache := fs.Int("cache", 256, "completed outcomes kept for exact replay (-1 disables caching)")
	queue := fs.Int("queue", 1024, "pending-job backlog bound; submissions beyond it are rejected")
	leaseTTL := fs.Duration("lease-ttl", 0, "distributed unit lease TTL: how long an hmscs-worker may miss heartbeats before its units are re-offered (0 = 10s)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown budget for open streams and running jobs")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (CPU, heap, goroutine profiles; docs/OBSERVABILITY.md)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv := serve.New(serve.Config{
		Parallelism:  *parallel,
		MaxJobs:      *jobs,
		CacheSize:    *cache,
		QueueDepth:   *queue,
		DistLeaseTTL: *leaseTTL,
	})
	handler := srv.Handler()
	if *pprofOn {
		// Explicit registrations on a parent mux — the pprof handlers are
		// opt-in, never on http.DefaultServeMux behind the API's back.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	hs := newHTTPServer(*addr, handler)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		// Cancel running jobs first so open event streams terminate,
		// then give the listener the drain budget to flush them.
		srv.Close()
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		hs.Shutdown(sctx) //nolint:errcheck // the fallback below force-closes
	}()

	fmt.Fprintf(os.Stderr, "hmscs-server: listening on %s (jobs=%d, parallel=%d, cache=%d)\n",
		*addr, *jobs, *parallel, *cache)
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		srv.Close()
		return err
	}
	return nil
}
