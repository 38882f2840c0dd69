// Command dynlbworker is one member of a distributed sweep fleet: a
// stateless HTTP worker that accepts simulation jobs from a coordinator
// (cmd/experiments -dist, cmd/dynlbd -dist, or dynlb.WithDistributed),
// runs them with the same engine the library uses in-process, and sends
// the results back as JSON, exact for every finite value. Because every
// job arrives as its exact simulation inputs — fully resolved config plus
// strategy name — results are bit-identical to local execution wherever
// the job lands.
//
//	dynlbworker -addr :9090 -slots 4
//
// Endpoints:
//
//	POST /v1/jobs   run one job (coordinator protocol)
//	GET  /healthz   liveness and load: {"status":"ok","slots":N,"busy":B,"jobs_done":D}
//
// The worker holds no sweep state: coordinators may crash, retry, or send
// the same job twice (the coordinator drops duplicate completions after
// byte-verifying them), and workers may join or die mid-sweep — the
// coordinator re-dispatches and the merged rows never change.
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
	"syscall"
	"time"

	"dynlb/internal/dist"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr  = flag.String("addr", ":9090", "listen address")
		slots = flag.Int("slots", 0, "max concurrent simulations (<= 0 = NumCPU)")
		grace = flag.Duration("grace", 5*time.Second, "shutdown grace period for in-flight job batches")
	)
	flag.Parse()
	if *grace <= 0 {
		fmt.Fprintf(os.Stderr, "-grace %v: want a positive duration like 5s\n", *grace)
		return 2
	}

	w := dist.NewWorker(*slots)
	srv := &http.Server{Addr: *addr, Handler: w}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("dynlbworker listening on %s (slots=%d)", *addr, w.Slots())

	select {
	case err := <-errc:
		log.Printf("serve: %v", err)
		return 1
	case <-ctx.Done():
	}
	log.Printf("shutting down (%d jobs done)", w.JobsDone())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	return 0
}
