package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dynlb"
)

// Coordinator executes experiment plans across the worker fleet. It
// implements dynlb.Executor, so it plugs into an experiment with
// dynlb.WithDistributed(coord), and its RunJob is the per-job runner that
// internal/service's scheduler takes through UseRemote. See the package
// comment for the failure model.
type Coordinator struct {
	o    Options
	pool *Pool

	mu     sync.Mutex
	rep    *Report // the report RunJob counts into; see Report
	broken error   // the first duplicate that differed from its accepted copy
}

// New builds a coordinator (and its fleet pool) from opts.
func New(opts Options) *Coordinator {
	o := opts.withDefaults()
	return &Coordinator{o: o, pool: newPool(o), rep: &Report{Workers: o.Workers}}
}

// Pool exposes the coordinator's fleet pool and its shared health state.
func (c *Coordinator) Pool() *Pool { return c.pool }

// Close releases the fleet pool.
func (c *Coordinator) Close() { c.pool.Close() }

// Report returns a snapshot of the report of the most recent ExecutePlan.
// RunJob calls made outside ExecutePlan (the service backend) add their
// counts to the same report, but no placements.
func (c *Coordinator) Report() *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := *c.rep
	r.Jobs = append([]JobPlacement(nil), r.Jobs...)
	return &r
}

// JobPlacement records where one plan job was computed.
type JobPlacement struct {
	Job      int     `json:"job"`
	Slot     int     `json:"slot"`     // the plan slot (sweep point) the job belongs to
	Worker   string  `json:"worker"`   // worker base URL of the accepted copy, or "local"
	Attempts int     `json:"attempts"` // remote dispatches of the job (0 = never left the coordinator)
	MS       float64 `json:"ms"`       // wall-clock ms from sweep start to job completion
}

// Report summarizes one distributed sweep: where every job ran and how
// the failure machinery was exercised. It never influences the rows — the
// same experiment produces the same rows under any Report.
type Report struct {
	Workers      []string       `json:"workers"`       // configured fleet
	LiveAtStart  int            `json:"live_at_start"` // workers that answered the initial probe
	Jobs         []JobPlacement `json:"jobs"`          // in job order
	Duplicates   int            `json:"duplicates"`    // later copies of accepted jobs, byte-verified and dropped
	Redispatches int            `json:"redispatches"`  // attempts repeated after a failed or abandoned request, or no live worker
	LocalJobs    int            `json:"local_jobs"`    // jobs that ran on the coordinator
	ElapsedMS    float64        `json:"elapsed_ms"`
}

// ExecutePlan implements dynlb.Executor: it probes the fleet, runs the
// plan through Plan.Execute with RunJob, keeping one job in flight per
// live worker (LocalWorkers when none answers), and records where every
// job ran in a fresh Report.
func (c *Coordinator) ExecutePlan(ctx context.Context, p *dynlb.Plan, deliver func([]dynlb.Row)) error {
	start := time.Now()
	rep := &Report{Workers: c.o.Workers}
	if p.NumJobs() > 0 {
		rep.LiveAtStart = c.pool.Probe(ctx)
	}
	c.mu.Lock()
	c.rep = rep
	c.mu.Unlock()
	defer c.count(func(r *Report) {
		r.ElapsedMS = float64(time.Since(start)) / 1e6
		sort.Slice(r.Jobs, func(a, b int) bool { return r.Jobs[a].Job < r.Jobs[b].Job })
	})
	if p.NumJobs() == 0 {
		return nil
	}
	inFlight := rep.LiveAtStart
	if inFlight == 0 {
		if c.o.DisableLocal {
			return errors.New("dist: no live workers and local execution is disabled")
		}
		c.o.Logf("dist: no live workers, running %d jobs locally", p.NumJobs())
		inFlight = c.o.LocalWorkers
	}
	err := p.Execute(ctx, inFlight, func(ctx context.Context, i int) error {
		pl, err := c.runJob(ctx, p, i)
		if err != nil {
			return err
		}
		pl.MS = float64(time.Since(start)) / 1e6
		c.count(func(r *Report) { r.Jobs = append(r.Jobs, pl) })
		return nil
	}, deliver)
	if err != nil {
		return err
	}
	// A duplicate that landed after its job completed fails the sweep too.
	return c.failure()
}

var (
	errAbandoned   = errors.New("dist: request exceeded RequestTimeout (abandoned, not cancelled)")
	errNoLive      = errors.New("dist: no live workers")
	errNotPortable = errors.New("dist: job is not portable")
)

// reply is the outcome of one dispatched copy of a job.
type reply struct {
	n   int // dispatch number of the copy, from 1
	w   *client
	res wireResult
	err error
}

// RunJob executes plan job i on the fleet and stores its Results in the
// plan (Plan.SetJobResult), exactly as Plan.RunJob would have. It is safe
// for concurrent use with distinct job indices.
//
// The job goes to the live worker with the fewest jobs in flight. A
// worker whose request fails is marked down; a request that exceeds
// RequestTimeout is abandoned without being cancelled, and its worker
// marked down too. Either way the job is dispatched again after Backoff,
// for up to MaxAttempts attempts. The first copy to succeed is accepted;
// later ones are byte-verified against it and counted as duplicates. A
// duplicate that differs means the fleet no longer computes a pure
// function of the job (a worker running another build, say): this and
// every later RunJob and ExecutePlan then fail.
//
// The job runs locally instead when it is not portable, when no worker is
// live, when a worker reports that the job itself failed, or when its
// attempts run out — unless DisableLocal is set, which makes each of
// those an error.
func (c *Coordinator) RunJob(ctx context.Context, p *dynlb.Plan, i int) error {
	_, err := c.runJob(ctx, p, i)
	return err
}

// runJob is RunJob, also returning where the job ran.
func (c *Coordinator) runJob(ctx context.Context, p *dynlb.Plan, i int) (JobPlacement, error) {
	pl := JobPlacement{Job: i, Slot: p.SlotOf(i), Worker: "local"}
	if err := c.failure(); err != nil {
		return pl, err
	}
	var (
		// Each copy sends one reply and at most MaxAttempts copies go out,
		// so no send blocks, even after runJob returned.
		replies = make(chan reply, c.o.MaxAttempts)
		pending int // copies sent and not yet replied
		why     = errNotPortable
	)
	if j, ok := encodeJob(p, i); ok {
		var (
			cur   *client            // worker of the awaited copy; nil while backing off
			tries int                // failed attempts so far
			timer = time.NewTimer(0) // the first copy goes out at once
		)
		defer timer.Stop()
		// again arms the timer for the next attempt after one failed for
		// err, or reports false when the job has no attempts left.
		again := func(err error) bool {
			why = err
			if tries++; tries >= c.o.MaxAttempts {
				return false
			}
			delay := c.o.Backoff.Delay(tries - 1)
			c.o.Logf("dist: job %d re-dispatching in %v (%v)", i, delay, err)
			c.count(func(r *Report) { r.Redispatches++ })
			timer.Reset(delay)
			return true
		}
	remote:
		for {
			select {
			case <-ctx.Done():
				return pl, ctx.Err()
			case <-timer.C:
				if cur != nil {
					// The copy is abandoned but keeps running: its reply
					// still wins if it lands first.
					c.pool.markDown(cur, errAbandoned)
					cur = nil
					if !again(errAbandoned) {
						break remote
					}
					continue
				}
				if cur = c.pool.acquire(); cur == nil {
					// A dead fleet runs the job here at once, unless local
					// execution is disabled: then wait for a worker to
					// come back.
					if !c.o.DisableLocal || !again(errNoLive) {
						why = errNoLive
						break remote
					}
					continue
				}
				pl.Attempts++
				pending++
				go func(w *client, n int) {
					res, err := w.run(ctx, j)
					c.pool.release(w)
					replies <- reply{n, w, res, err}
				}(cur, pl.Attempts)
				timer.Reset(c.o.RequestTimeout)
			case r := <-replies:
				pending--
				switch {
				case r.err != nil:
					if ctx.Err() != nil {
						return pl, ctx.Err() // the request died with our context, not its worker
					}
					if cur == nil || r.n != pl.Attempts {
						continue // an abandoned copy, already dispatched again
					}
					c.pool.markDown(r.w, r.err)
					cur = nil
					if !again(r.err) {
						break remote
					}
				case r.res.Err != "":
					// The job itself failed, deterministically (running it
					// locally reproduces the error) or by a worker panic
					// (running it locally resolves it): retrying it on
					// another worker cannot help.
					why = fmt.Errorf("dist: worker %s: job %d: %s", r.w.base, i, r.res.Err)
					break remote
				default:
					var res dynlb.Results
					if err := json.Unmarshal(r.res.Results, &res); err != nil {
						why = fmt.Errorf("dist: worker %s: job %d: %w", r.w.base, i, err)
						break remote
					}
					p.SetJobResult(i, res)
					pl.Worker = r.w.base
					c.verifyLate(i, res, replies, pending)
					return pl, nil
				}
			}
		}
	}
	if c.o.DisableLocal {
		return pl, fmt.Errorf("dist: job %d: %w, and local execution is disabled", i, why)
	}
	c.o.Logf("dist: job %d running locally: %v", i, why)
	c.count(func(r *Report) { r.LocalJobs++ })
	if err := p.RunJob(i); err != nil {
		return pl, err
	}
	c.verifyLate(i, p.JobResult(i), replies, pending)
	return pl, nil
}

// verifyLate checks, in the background, the pending copies of job i still
// in flight against its accepted result: each one that succeeds is a
// duplicate, and one that differs breaks the coordinator.
func (c *Coordinator) verifyLate(i int, accepted dynlb.Results, replies <-chan reply, pending int) {
	if pending == 0 {
		return
	}
	go func() {
		for ; pending > 0; pending-- {
			r := <-replies
			if r.err != nil || r.res.Err != "" {
				continue
			}
			var dup dynlb.Results
			if json.Unmarshal(r.res.Results, &dup) != nil {
				continue
			}
			err := verifySameResults(accepted, dup, i)
			c.mu.Lock()
			c.rep.Duplicates++
			if err != nil && c.broken == nil {
				c.broken = err
			}
			c.mu.Unlock()
		}
	}()
}

// count applies fn to the current report under the coordinator's lock.
func (c *Coordinator) count(fn func(*Report)) {
	c.mu.Lock()
	fn(c.rep)
	c.mu.Unlock()
}

// failure returns the determinism violation that broke the coordinator,
// if any.
func (c *Coordinator) failure() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// verifySameResults asserts that a duplicate delivery of job id matches
// the accepted result byte for byte (in its wire encoding) — the
// determinism guarantee duplicates are silently dropped under.
func verifySameResults(accepted, dup dynlb.Results, id int) error {
	a, err := json.Marshal(accepted)
	if err != nil {
		return err
	}
	b, err := json.Marshal(dup)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("dist: duplicate completion of job %d differs from the accepted result — determinism violation", id)
	}
	return nil
}
