// Package dist runs the jobs of a compiled dynlb experiment Plan on a
// fleet of remote workers over plain HTTP/JSON.
//
// The topology is a single coordinator plus N stateless workers (cmd/
// dynlbworker). The unit of dispatch is one physical job: it travels as
// its exact simulation inputs (the fully resolved Config plus the
// strategy's wire name), the worker simulates it with the same engine the
// library uses, and the Results travel back as JSON, which round-trips
// every finite float64 exactly.
// Coordinator.RunJob is the fleet's only per-job runner; it sends each job
// to the live worker with the fewest jobs in flight. ExecutePlan drives a
// whole plan through dynlb.Plan.Execute with one job in flight per live
// worker, so a fast worker simply comes back for the next job sooner.
// Completions fold through the Plan's Complete hook, so rows assemble in
// the library's deterministic order and the merged output is
// bit-identical to local execution at any worker count or placement — the
// per-slot splitmix64 seed discipline makes every job a pure function of
// its wire form.
//
// Failure tolerance: a worker that fails a request is marked down and
// re-probed in the background until it rejoins; a request that exceeds
// RequestTimeout is abandoned, not cancelled, and the job is re-dispatched
// after a capped exponential backoff (internal/retry). The first copy of a
// job to arrive is accepted; later copies are byte-verified against it and
// counted as duplicates, and a mismatch fails the run. When the job is not
// portable, no worker is live, or its remote attempts run out, it runs
// on the coordinator instead, so a sweep always terminates with the same
// rows.
//
// The same runner backs the dynlbd service: internal/service's scheduler
// routes its claimed slots through Coordinator.RunJob
// (Scheduler.UseRemote), fanning a daemon's jobs out to the workers while
// keeping its round-robin fairness and result cache intact.
package dist

import (
	"net/http"
	"runtime"
	"time"

	"dynlb/internal/retry"
)

// Options configures a worker fleet client (Pool) and the coordinator
// built on top of it. The zero value of every field selects a sensible
// default; Workers is the only field without one.
type Options struct {
	// Workers lists the base URLs of the worker fleet, e.g.
	// "http://10.0.0.7:9090". Workers that are down at start are probed in
	// the background and join the fleet when they become healthy. An empty
	// list (or an all-dead fleet) degrades to local execution unless
	// DisableLocal is set.
	Workers []string

	// Client is the HTTP client used for worker requests. Defaults to a
	// dedicated client without a global timeout (per-request contexts
	// bound every call).
	Client *http.Client

	// RequestTimeout is how long the coordinator waits for a dispatched
	// job before abandoning it: the job is re-dispatched to another worker
	// while the original request keeps running in the background, so a
	// slow-but-alive worker's result is not wasted — whichever copy lands
	// first wins and the loser is dropped as a duplicate. Default 2m.
	RequestTimeout time.Duration

	// ProbeTimeout bounds a single health probe. Default 2s.
	ProbeTimeout time.Duration

	// MaxAttempts is the number of remote attempts per job before it
	// falls back to local execution (which also surfaces any
	// deterministic job error instead of retrying it forever). Default 3.
	MaxAttempts int

	// Backoff delays a job's re-dispatch after a failed attempt.
	// Default 200ms doubling to 5s.
	Backoff retry.Backoff

	// LocalWorkers is the number of jobs ExecutePlan keeps in flight when
	// no worker answers its initial probe. Default runtime.NumCPU().
	LocalWorkers int

	// DisableLocal makes a job that cannot run remotely a hard error
	// instead of running it locally. A job that finds no live worker then
	// waits for one to come back, within its MaxAttempts. Intended for
	// tests and benchmarks that must prove the remote path ran.
	DisableLocal bool

	// Logf, when set, receives human-oriented progress notes (worker
	// deaths, re-dispatches, fallback transitions). Never required for
	// correctness.
	Logf func(format string, args ...any)
}

// withDefaults returns o with every unset field resolved.
func (o Options) withDefaults() Options {
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 2 * time.Minute
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.MaxAttempts < 1 {
		o.MaxAttempts = 3
	}
	if o.Backoff == (retry.Backoff{}) {
		o.Backoff = retry.Backoff{Base: 200 * time.Millisecond, Cap: 5 * time.Second}
	}
	if o.LocalWorkers < 1 {
		o.LocalWorkers = runtime.NumCPU()
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}
