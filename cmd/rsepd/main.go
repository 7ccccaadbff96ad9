// Command rsepd is the simulation daemon: it serves the result store and
// the job scheduler over HTTP. Any submitted job whose key is already in
// the store is answered without simulating; every simulated result is
// written back through the store, so repeated traffic — across clients,
// figures and machines — converges to pure lookups. Stored results are
// additionally served as immutable, strongly-ETagged documents that edge
// caches can memoize.
//
// Endpoints: POST /v1/batches (NDJSON result stream),
// GET /v1/results/{id}, GET /v1/status (scheduler and store gauges),
// /healthz, /metrics (Prometheus text). Errors are a uniform JSON envelope
// {"error":{"code","message"}}; see README.md for the API reference.
//
// Usage:
//
//	rsepd                                # serve :8321 over ~/.cache/rsepsim
//	rsepd -addr :9000 -par 8             # custom port, 8 workers
//	rsepd -cache-warm                    # preload the memory tier at boot
//	rsepd -cache ro                      # serve a read-only store
//	rsepd -pprof-addr localhost:6060     # expose net/http/pprof separately
//	experiments -fig 6 -server http://localhost:8321
//
// Profiling: -pprof-addr (off by default) starts a second listener serving
// the standard net/http/pprof endpoints (/debug/pprof/...), so daemon-side
// hot paths can be profiled under live traffic the way -cpuprofile and
// -memprofile already cover the CLIs:
//
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=30
//
// The profile listener is separate from the serving listener on purpose:
// bind it to localhost (or an internal interface) and the debug surface is
// never reachable through whatever port the daemon itself is exposed on.
//
// SIGINT/SIGTERM shut down gracefully: in-flight batches are cancelled (the
// results they completed are already flushed to the store and reported in
// each response's final event), then the listener drains.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rsepsim/internal/cliutil"
	"rsepsim/internal/runner"
	"rsepsim/internal/serve"
	"rsepsim/internal/store"
)

func main() {
	var shared cliutil.Flags
	shared.RegisterStore(flag.CommandLine)
	var (
		addr      = flag.String("addr", ":8321", "listen address")
		par       = flag.Int("par", 0, "concurrent simulations (default NumCPU)")
		verbose   = flag.Bool("v", false, "log every admitted batch")
		drainSecs = flag.Int("drain", 30, "graceful shutdown drain budget, seconds")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (off when empty; use a loopback or internal interface)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "rsepd: ", log.LstdFlags)
	fail := func(format string, args ...any) {
		logger.Printf(format, args...)
		os.Exit(2)
	}

	backend, err := shared.Backend("rsepd")
	if err != nil {
		fail("%v", err)
	}
	resStore, disk := backend.Store, backend.Disk

	sched := runner.NewScheduler(runner.SchedulerOptions{
		Parallelism: *par,
		Store:       resStore,
	})
	batchLog := log.New(os.Stderr, "rsepd: ", log.LstdFlags)
	if !*verbose {
		batchLog = nil
	}
	srv := serve.NewServer(serve.Options{Sched: sched, Disk: disk, Log: batchLog})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	if *pprofAddr != "" {
		// A dedicated mux on a dedicated listener: the debug surface never
		// shares a port with the public API, and DefaultServeMux stays
		// untouched. A pprof listener failure is fatal — an operator who
		// asked for profiling should not silently run without it.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{
			Addr:              *pprofAddr,
			Handler:           mux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() { errCh <- pprofSrv.ListenAndServe() }()
		defer pprofSrv.Close()
		logger.Printf("pprof on %s/debug/pprof/", *pprofAddr)
	}
	go func() { errCh <- httpSrv.ListenAndServe() }()
	if disk != nil {
		logger.Printf("serving on %s over %s (%s)", *addr, disk.Dir(), shared.CacheMode)
	} else {
		logger.Printf("serving on %s with an in-memory store", *addr)
	}

	select {
	case err := <-errCh:
		fail("%v", err)
	case <-ctx.Done():
	}

	logger.Printf("shutting down: cancelling in-flight batches")
	srv.Close() // batches abort promptly; completed results are already stored
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSecs)*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("drain: %v", err)
	}
	store.WarnWrites("rsepd", disk)
	st := sched.Status()
	fmt.Fprintf(os.Stderr, "rsepd: served %d batches / %d jobs, %d simulations\n",
		st.Batches, st.Jobs, st.Simulations)
}
