// Command ompss-serve runs the multi-tenant service runtime: one persistent
// ompss.Runtime hosting the suite's media kernels behind HTTP, one
// request-scoped ompss.Session per request (internal/serve).
//
//	ompss-serve -addr :8080
//	    serve /healthz, /metrics, /v1/rotate, /v1/rgbcmy, /v1/h264dec and
//	    /v1/fault until interrupted; on SIGINT/SIGTERM the server drains —
//	    new session-bearing requests answer 503, live sessions finish
//	    (bounded by -drain-timeout), and the process exits 0
//	ompss-serve -load -duration 5s
//	    the smoke: eight closed-loop clients of mixed tenants, a /v1/fault
//	    every seventh request, over loopback HTTP to this process's
//	    server; exits 1 on any unexpected answer (a kernel 500 is an
//	    isolation violation) or when no kernel request answered 200
//	ompss-serve -load -target http://host:8080 -duration 5s
//	    the same smoke against a running ompss-serve
//	ompss-serve -load -reject -max-inflight 16
//	    load shedding: a request that arrives while the run-ahead window
//	    is full answers 429 with Retry-After before its session opens; the
//	    smoke counts it as refused and waits as asked
//
// Tenancy: requests carry X-Tenant: gold|silver|bronze; the server maps the
// class onto the scheduler's priority levels via the session's Tenant option.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ompssgo/internal/obs"
	"ompssgo/internal/serve"
	"ompssgo/ompss"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address (serve mode)")
		load      = flag.Bool("load", false, "run the smoke instead of serving")
		duration  = flag.Duration("duration", 3*time.Second, "smoke duration")
		target    = flag.String("target", "", "smoke a running server at this base URL instead of this process's own")
		workers   = flag.Int("workers", 0, "runtime worker threads (0 = NumCPU)")
		sessLimit = flag.Int("session-inflight", 256, "per-session MaxInFlight budget (0 = unlimited)")
		globLimit = flag.Int("max-inflight", 0, "runtime-wide run-ahead window across all sessions, in tasks (0 = the default, 64 per worker; negative = unlimited)")
		reject    = flag.Bool("reject", false, "answer 429 to a request that arrives while the -max-inflight window is full (default: admit it, and its spawns wait for room)")
		blocking  = flag.Bool("blocking", true, "Blocking wait mode (idle workers park; -blocking=false polls)")
		tracePath = flag.String("trace", "", "record an observability trace of this process's server during the smoke here (filter per session with ompss-trace analyze -session)")
		drainT    = flag.Duration("drain-timeout", 10*time.Second, "deadline for draining live sessions on SIGINT/SIGTERM (serve mode)")
	)
	flag.Parse()
	if err := run(*addr, *load, *duration, *target, *workers, *sessLimit, *globLimit,
		*reject, *blocking, *tracePath, *drainT); err != nil {
		fmt.Fprintf(os.Stderr, "ompss-serve: %v\n", err)
		os.Exit(1)
	}
}

func run(addr string, load bool, duration time.Duration, target string,
	workers, sessLimit, globLimit int, reject, blocking bool, tracePath string,
	drainT time.Duration) error {
	if load && target != "" {
		return serve.Smoke(os.Stdout, target, duration)
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	opts := []ompss.Option{ompss.Workers(workers)}
	if blocking {
		opts = append(opts, ompss.Wait(ompss.Blocking))
	}
	opts = append(opts, ompss.MaxInFlight(globLimit))
	var rec *obs.Recorder
	if tracePath != "" {
		rec = obs.NewRecorder()
		opts = append(opts, ompss.Observe(rec))
	}
	rt := ompss.New(opts...)
	defer rt.Shutdown()

	admission := ompss.BlockOnFull
	if reject {
		admission = ompss.RejectOnFull
	}
	srv := serve.New(rt, serve.Config{SessionInFlight: sessLimit, Admission: admission, Recorder: rec})

	if !load {
		return serveUntilSignalled(addr, workers, sessLimit, drainT, srv)
	}

	ts := httptest.NewServer(srv.Handler())
	err := serve.Smoke(os.Stdout, ts.URL, duration)
	ts.Close()
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := rec.Snapshot().WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return err
}

// serveUntilSignalled listens until SIGINT/SIGTERM, then drains: the server
// stops admitting session-bearing requests (503 + Retry-After), live
// sessions run to completion under drainT, the listener shuts down, and the
// process exits 0. Sessions still live at the deadline are abandoned to the
// runtime's Shutdown barrier — the exit is still clean, just noisier.
func serveUntilSignalled(addr string, workers, sessLimit int, drainT time.Duration, srv *serve.Server) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ompss-serve: listening on %s (workers=%d session-inflight=%d drain-timeout=%v)\n",
		addr, workers, sessLimit, drainT)

	select {
	case err := <-errc:
		return err // listener died on its own (bad addr, port in use)
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second ^C kills immediately

	fmt.Fprintf(os.Stderr, "ompss-serve: signal received, draining (deadline %v)\n", drainT)
	dctx, cancel := context.WithTimeout(context.Background(), drainT)
	defer cancel()
	drainErr := srv.Drain(dctx)
	if err := hs.Shutdown(dctx); err != nil {
		hs.Close()
	}
	<-errc // reap the ListenAndServe goroutine (returns ErrServerClosed)
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "ompss-serve: %v — exiting anyway\n", drainErr)
	} else {
		fmt.Fprintln(os.Stderr, "ompss-serve: drained, exiting")
	}
	return nil
}
