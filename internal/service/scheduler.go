// Package service is the experiment service behind cmd/dynlbd: a
// scheduler multiplexing many concurrent experiment jobs over one shared
// bounded worker pool — round-robin fairness across jobs, bounded
// admission with backpressure — plus an HTTP/JSON API (Server) with
// per-job lifecycle endpoints, SSE row streaming in the library's
// deterministic row order, and an in-memory result cache keyed on the
// canonicalized request, so resubmitted sweeps are served byte-identically
// without re-running a single simulation.
//
// The scheduler is itself the thing the paper studies: a load balancer.
// Each submitted experiment compiles (via dynlb.Experiment.Plan) into
// independent simulation slots; the pool's workers claim one slot at a
// time from the active jobs in round-robin order, so a long sweep cannot
// starve a short one — the multi-queue fairness discipline of Rahm &
// Marek's integrated strategies, applied to the simulator's own capacity
// planning.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dynlb"
)

// ErrBusy is returned by Submit when the scheduler's admission queue is
// full; HTTP maps it to 429 with a Retry-After hint.
var ErrBusy = errors.New("service: admission queue full, retry later")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: scheduler closed")

// errNotFound wraps unknown job ids; HTTP maps it to 404.
var errNotFound = errors.New("service: no such job")

// JobState is the lifecycle state of a submitted experiment.
type JobState string

// Job lifecycle states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Job is one submitted experiment: its compiled plan, the rows emitted so
// far (always a deterministic prefix of the full row slice), and the
// lifecycle state. Scheduler-owned scheduling fields (next, ring
// membership) are guarded by the scheduler mutex; everything else by
// j.mu.
type Job struct {
	id    string
	key   string // canonical cache key
	label string // figure id or sweep name, for listings
	total int    // physical simulations in the plan

	ctx     context.Context
	cancel  context.CancelFunc
	started atomic.Bool // a worker claimed at least one slot

	next int // next unclaimed physical job index (scheduler mutex)

	mu        sync.Mutex
	plan      *dynlb.Plan
	state     JobState
	rows      []dynlb.Row
	rowsTotal int
	completed int // simulations folded into rows
	simulated int // simulations actually executed (0 on a cache hit)
	err       error
	cached    bool
	change    chan struct{} // closed and replaced on every visible change
	done      chan struct{} // closed once terminal
}

// Status is the wire form of a job's state, served by the HTTP API.
type Status struct {
	ID          string `json:"id"`
	Source      string `json:"source"` // figure id or sweep name
	State       string `json:"state"`  // queued | running | done | failed | cancelled
	Simulations int    `json:"simulations"`
	Simulated   int    `json:"simulated"` // executed here; 0 when served from cache
	Rows        int    `json:"rows"`      // emitted so far
	RowsTotal   int    `json:"rows_total"`
	Cached      bool   `json:"cached"` // result served from the cache
	Error       string `json:"error,omitempty"`
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Err returns the terminal error of a failed or cancelled job (nil while
// non-terminal and after success).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Rows returns the rows emitted so far — a deterministic prefix of the
// experiment's full row slice (the complete slice once the job is done).
// The result is shared and must not be mutated.
func (j *Job) Rows() []dynlb.Row {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rows[:len(j.rows):len(j.rows)]
}

// Status snapshots the job for the API.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.state
	if st == JobQueued && (j.started.Load() || j.simulated > 0) {
		st = JobRunning
	}
	s := Status{
		ID:          j.id,
		Source:      j.label,
		State:       string(st),
		Simulations: j.total,
		Simulated:   j.simulated,
		Rows:        len(j.rows),
		RowsTotal:   j.rowsTotal,
		Cached:      j.cached,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s
}

// snapshotFrom returns the rows emitted since index from, the current
// state, the terminal error, and a channel closed on the next change —
// taken atomically, so an SSE stream never misses a wake-up.
func (j *Job) snapshotFrom(from int) (batch []dynlb.Row, st JobState, err error, change <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.rows) {
		batch = j.rows[from:len(j.rows):len(j.rows)]
	}
	return batch, j.state, j.err, j.change
}

// bump wakes every watcher; callers hold j.mu.
func (j *Job) bump() {
	close(j.change)
	j.change = make(chan struct{})
}

// terminalLocked reports whether the job is in a terminal state; callers
// hold j.mu.
func (j *Job) terminalLocked() bool {
	return j.state == JobDone || j.state == JobFailed || j.state == JobCancelled
}

// finishLocked moves the job to a terminal state; callers hold j.mu.
func (j *Job) finishLocked(st JobState, err error) {
	j.state = st
	j.err = err
	close(j.done)
	j.bump()
}

// Scheduler multiplexes submitted experiments over one bounded worker
// pool. Admission is bounded (capacity non-terminal jobs; Submit returns
// ErrBusy beyond that) and dispatch is round-robin across active jobs:
// every worker claims one simulation slot from the next job in the ring,
// so concurrent sweeps progress at the same slot rate regardless of size.
type Scheduler struct {
	workers  int
	capacity int
	cache    *Cache

	// runSlot executes one claimed simulation slot; the default delegates
	// to the plan. Tests swap it to inject failures (panics, errors) that
	// no wire request can produce.
	runSlot func(j *Job, i int) error

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job
	order    []*Job // submission order, for listings
	ring     []*Job // jobs with unclaimed slots, claimed round-robin
	rr       int
	active   int // non-terminal jobs admitted against capacity
	nextID   int
	stopped  bool
	slotTime time.Duration // total wall time of completed slots (Retry-After hint)
	slots    int64         // completed slots backing slotTime
	wg       sync.WaitGroup
}

// New starts a scheduler with the given worker-pool size (<= 0 means
// runtime.NumCPU), admission capacity (<= 0 means 16 concurrent jobs) and
// result-cache size in completed experiments (0 disables caching).
func New(workers, capacity, cacheSize int) *Scheduler {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if capacity <= 0 {
		capacity = 16
	}
	s := &Scheduler{
		workers:  workers,
		capacity: capacity,
		cache:    NewCache(cacheSize),
		jobs:     make(map[string]*Job),
	}
	s.runSlot = func(j *Job, i int) error { return j.plan.RunJob(i) }
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.worker()
	}
	return s
}

// Workers reports the pool size.
func (s *Scheduler) Workers() int { return s.workers }

// UseRemote swaps the scheduler's slot executor for an external one — the
// distributed backend: run receives the claimed slot's job context, plan
// and physical job index, and must leave the job's Results in the plan
// (dynlb.Plan.SetJobResult) before returning, exactly as Plan.RunJob
// would. The scheduler keeps everything else — round-robin fairness,
// cancellation, the result cache — unchanged; rows stay bit-identical
// because jobs are pure functions of their plan inputs wherever they run.
// Call UseRemote before the first Submit; distinct slots may be claimed
// concurrently, so run must be safe for concurrent calls with distinct
// indices (dist.Coordinator.RunJob is).
func (s *Scheduler) UseRemote(run func(ctx context.Context, p *dynlb.Plan, i int) error) {
	s.mu.Lock()
	s.runSlot = func(j *Job, i int) error { return run(j.ctx, j.plan, i) }
	s.mu.Unlock()
}

// Cache exposes the result cache (for stats endpoints and tests).
func (s *Scheduler) Cache() *Cache { return s.cache }

// Submit validates and admits one experiment request. A request whose
// canonical form is cached completes immediately with the cached rows and
// Status.Cached true — zero simulations. Otherwise the request is compiled
// into a plan and its slots queued on the shared pool; ErrBusy reports a
// full admission queue. The returned job is already registered for the
// lifecycle endpoints.
func (s *Scheduler) Submit(req *dynlb.ExperimentRequest) (*Job, error) {
	exp, err := req.Experiment()
	if err != nil {
		return nil, err
	}
	key, err := req.CacheKey()
	if err != nil {
		return nil, err
	}
	label := req.Figure
	if label == "" {
		label = "sweep"
		if req.Sweep != nil && req.Sweep.Name != "" {
			label = req.Sweep.Name
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil, ErrClosed
	}
	if rows, hit := s.cache.Get(key); hit {
		j := s.newJobLocked(key, label, 0)
		j.cached = true
		j.rows = rows
		j.rowsTotal = len(rows)
		j.state = JobDone
		close(j.done)
		return j, nil
	}
	if s.active >= s.capacity {
		return nil, ErrBusy
	}
	plan, err := exp.Plan()
	if err != nil {
		return nil, err
	}
	rows0, err := plan.Start() // rows with no simulation deps
	if err != nil {
		return nil, err
	}
	j := s.newJobLocked(key, label, plan.NumJobs())
	j.plan = plan
	j.rows = rows0
	j.rowsTotal = plan.NumRows()
	if plan.NumJobs() == 0 {
		j.state = JobDone
		close(j.done)
		s.cache.Put(key, j.rows)
		return j, nil
	}
	s.active++
	s.ring = append(s.ring, j)
	s.cond.Broadcast()
	return j, nil
}

// newJobLocked allocates and registers a job; callers hold s.mu.
func (s *Scheduler) newJobLocked(key, label string, total int) *Job {
	s.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id:     fmt.Sprintf("j%d", s.nextID),
		key:    key,
		label:  label,
		total:  total,
		ctx:    ctx,
		cancel: cancel,
		state:  JobQueued,
		change: make(chan struct{}),
		done:   make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	return j
}

// Job looks up a submitted job by id.
func (s *Scheduler) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", errNotFound, id)
	}
	return j, nil
}

// List snapshots every job in submission order.
func (s *Scheduler) List() []Status {
	s.mu.Lock()
	jobs := append([]*Job(nil), s.order...)
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel aborts a job promptly: its context is cancelled, no further slots
// are claimed, and the job turns terminal with ctx.Err() as its error.
// In-flight simulations are indivisible and finish in the background; their
// results are discarded. Cancelling a terminal job is a no-op.
func (s *Scheduler) Cancel(id string) (*Job, error) {
	j, err := s.Job(id)
	if err != nil {
		return nil, err
	}
	j.cancel()
	j.mu.Lock()
	if j.terminalLocked() {
		j.mu.Unlock()
		return j, nil
	}
	j.finishLocked(JobCancelled, j.ctx.Err())
	j.mu.Unlock()
	s.release(j)
	return j, nil
}

// Close stops the pool: queued slots are abandoned, every non-terminal job
// is cancelled, and the workers drain. In-flight simulations finish first.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.ring = nil
	jobs := append([]*Job(nil), s.order...)
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
		j.mu.Lock()
		if !j.terminalLocked() {
			j.finishLocked(JobCancelled, j.ctx.Err())
		}
		j.mu.Unlock()
	}
	s.wg.Wait()
}

// claim hands the calling worker the next (job, slot) pair in round-robin
// order across the active jobs, blocking until one exists or the scheduler
// stops. It touches only scheduler-owned fields — never j.mu — so dispatch
// and completion can never deadlock.
func (s *Scheduler) claim() (*Job, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped {
			return nil, 0, false
		}
		for len(s.ring) > 0 {
			if s.rr >= len(s.ring) {
				s.rr = 0
			}
			j := s.ring[s.rr]
			if j.ctx.Err() != nil || j.next >= j.total {
				// Cancelled or fully claimed: drop from the ring. The element
				// shifting into rr is scanned next, keeping the rotation fair.
				s.ring = append(s.ring[:s.rr], s.ring[s.rr+1:]...)
				continue
			}
			i := j.next
			j.next++
			j.started.Store(true)
			if j.next >= j.total {
				s.ring = append(s.ring[:s.rr], s.ring[s.rr+1:]...)
			} else {
				s.rr++
			}
			return j, i, true
		}
		s.cond.Wait()
	}
}

// worker is one goroutine of the shared pool: claim a slot, simulate it,
// fold the completion into its job. Slot wall time feeds the Retry-After
// estimate; it is advisory only and never influences rows.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		j, i, ok := s.claim()
		if !ok {
			return
		}
		start := time.Now()
		err := s.safeRun(j, i)
		s.noteSlotTime(time.Since(start))
		s.slotDone(j, i, err)
	}
}

// safeRun executes one slot, converting a panic inside the simulation into
// a job-level error: one poisoned experiment must fail visibly through its
// own status (and the rows endpoints' error events) without taking the
// shared pool — and every other job on it — down with the daemon.
func (s *Scheduler) safeRun(j *Job, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: simulation slot %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	s.mu.Lock()
	run := s.runSlot
	s.mu.Unlock()
	return run(j, i)
}

// noteSlotTime folds one slot's wall time into the running mean.
func (s *Scheduler) noteSlotTime(d time.Duration) {
	s.mu.Lock()
	s.slotTime += d
	s.slots++
	s.mu.Unlock()
}

// RetryAfter estimates, in whole seconds, how long a client rejected with
// ErrBusy should wait before resubmitting: the backlog of unclaimed
// simulation slots across the active jobs, costed at the observed mean
// slot wall time and divided across the pool. Before any slot has
// completed there is no observation and the hint falls back to 1 s; the
// result is clamped to [1, 60] so a pathological backlog still yields a
// header a client will honor.
func (s *Scheduler) RetryAfter() int {
	s.mu.Lock()
	backlog := 0
	for _, j := range s.ring {
		backlog += j.total - j.next
	}
	slotTime, slots, workers := s.slotTime, s.slots, s.workers
	s.mu.Unlock()
	if slots == 0 || backlog == 0 {
		return 1
	}
	mean := slotTime / time.Duration(slots)
	wait := int((mean*time.Duration(backlog)/time.Duration(workers) + time.Second - 1) / time.Second)
	if wait < 1 {
		return 1
	}
	if wait > 60 {
		return 60
	}
	return wait
}

// slotDone folds one finished simulation into its job: Complete under the
// job mutex (serializing the plan's emission state), append the newly
// deterministic rows, and finish the job when it was the last slot. A job
// cancelled while the slot simulated discards the result.
func (s *Scheduler) slotDone(j *Job, i int, runErr error) {
	j.mu.Lock()
	if j.terminalLocked() {
		j.mu.Unlock()
		return
	}
	j.simulated++
	var rows []dynlb.Row
	err := runErr
	if err == nil {
		rows, err = j.plan.Complete(i)
	}
	if err != nil {
		j.finishLocked(JobFailed, err)
		j.mu.Unlock()
		s.release(j)
		return
	}
	j.rows = append(j.rows, rows...)
	j.completed++
	finished := j.completed == j.total
	if finished {
		// The rows slice is append-only and final here, so the cache can
		// share it. It goes in before done closes, so whoever sees the job
		// finish and resubmits gets a cache hit.
		s.cache.Put(j.key, j.rows)
		j.state = JobDone
		close(j.done)
	}
	j.bump()
	j.mu.Unlock()
	if finished {
		s.release(j)
	}
}

// release returns a terminal job's admission slot and drops it from the
// dispatch ring.
func (s *Scheduler) release(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, r := range s.ring {
		if r == j {
			s.ring = append(s.ring[:k], s.ring[k+1:]...)
			if s.rr > k {
				s.rr--
			}
			break
		}
	}
	if s.active > 0 {
		s.active--
	}
}
