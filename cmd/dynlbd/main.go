// Command dynlbd is the dynlb experiment service: a long-running
// capacity-planning daemon that accepts experiment sweeps over HTTP/JSON,
// multiplexes them over one shared bounded worker pool with round-robin
// fairness and backpressure, streams rows over SSE in the library's
// deterministic order, and serves resubmitted sweeps from an in-memory
// result cache — byte-identical, zero simulations.
//
//	dynlbd -addr :8080 -workers 8 -queue 16 -cache 128
//
// With -dist the daemon fans simulations out to a dynlbworker fleet
// instead of running them in-process — same rows, same cache keys, because
// jobs are pure functions of their plan inputs wherever they run:
//
//	dynlbd -addr :8080 -dist http://10.0.0.7:9090,http://10.0.0.8:9090
//
// Submit, stream, inspect, cancel:
//
//	curl -d '{"figure": "1c", "scale": "quick"}' localhost:8080/v1/experiments
//	curl -N localhost:8080/v1/experiments/j1/rows        # SSE row stream
//	curl localhost:8080/v1/experiments/j1/rows?format=csv
//	curl localhost:8080/v1/experiments                   # list jobs
//	curl -X DELETE localhost:8080/v1/experiments/j1      # cancel
//
// Rows are a pure function of the request document: whatever the pool's
// load, the stream is bit-identical to running the same experiment through
// cmd/experiments or the library (the CI `service` job enforces this with
// cmp).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"dynlb/internal/dist"
	"dynlb/internal/service"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", runtime.NumCPU(), "shared simulation worker pool size (<= 0 = NumCPU)")
		queue   = flag.Int("queue", 16, "max concurrently admitted experiment jobs before 429 backpressure")
		cache   = flag.Int("cache", 128, "result cache capacity in completed experiments (0 disables)")
		grace   = flag.Duration("grace", 5*time.Second, "shutdown grace period for in-flight HTTP requests")
		distW   = flag.String("dist", "", "comma-separated dynlbworker URLs to fan simulations out to (empty = run in-process)")
	)
	flag.Parse()
	if *cache < 0 {
		fmt.Fprintf(os.Stderr, "-cache %d: want a non-negative integer\n", *cache)
		return 2
	}
	if *grace <= 0 {
		fmt.Fprintf(os.Stderr, "-grace %v: want a positive duration like 5s\n", *grace)
		return 2
	}

	sched := service.New(*workers, *queue, *cache)
	if *distW != "" {
		// Distributed backend: claimed slots execute on the worker fleet
		// (least-loaded live worker, failover, local fallback) instead of
		// in-process. Rows are bit-identical either way — jobs are pure
		// functions of their plan inputs — so the cache, SSE streams and
		// fairness discipline are untouched.
		coord := dist.New(dist.Options{
			Workers: strings.Split(*distW, ","),
			Logf:    log.Printf,
		})
		defer coord.Close()
		sched.UseRemote(coord.RunJob)
		log.Printf("dynlbd fanning simulations out to %d workers: %s", coord.Pool().NumWorkers(), *distW)
	}
	srv := &http.Server{Addr: *addr, Handler: service.NewServer(sched)}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("dynlbd listening on %s (workers=%d queue=%d cache=%d)",
		*addr, sched.Workers(), *queue, *cache)

	select {
	case err := <-errc:
		log.Printf("serve: %v", err)
		sched.Close()
		return 1
	case <-ctx.Done():
	}
	log.Printf("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	sched.Close()
	return 0
}
