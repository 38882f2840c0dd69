package service

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynlb"
)

// tinyBase is the cheapest meaningful simulation configuration: tiny
// system, sub-second windows.
func tinyBase() dynlb.Config {
	cfg := dynlb.DefaultConfig()
	cfg.NPE = 5
	cfg.JoinQPSPerPE = 0.1
	cfg.Warmup = dynlb.Seconds(0.5)
	cfg.MeasureTime = dynlb.Seconds(1)
	return cfg
}

// tinyReq is a four-slot sweep request (4 system sizes x 1 strategy).
func tinyReq(name string, seed int64) *dynlb.ExperimentRequest {
	base := tinyBase()
	return &dynlb.ExperimentRequest{
		Seed: &seed,
		Sweep: &dynlb.SweepSpec{
			Name:       name,
			Base:       &base,
			Strategies: []string{"MIN-IO"},
			Axes: []dynlb.AxisSpec{
				{Name: "#PE", Field: "NPE", Values: []float64{4, 5, 6, 7}},
			},
		},
	}
}

// idleScheduler returns a scheduler with no worker goroutines, so tests
// can drive claim/slotDone by hand and observe the dispatch discipline.
func idleScheduler(capacity, cacheSize int) *Scheduler {
	s := &Scheduler{
		workers:  1,
		capacity: capacity,
		cache:    NewCache(cacheSize),
		jobs:     make(map[string]*Job),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// waitJob fails the test if the job does not reach a terminal state
// quickly.
func waitJob(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish: %+v", j.ID(), j.Status())
	}
}

// TestRoundRobinFairness: with two competing jobs, the dispatch ring hands
// out one slot per job per rotation — interleaved slot completion, so a
// long sweep cannot starve a short one — and the rows that come out of the
// interleaved schedule are exactly the library's.
func TestRoundRobinFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	s := idleScheduler(4, 0)
	ja, err := s.Submit(tinyReq("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	jb, err := s.Submit(tinyReq("b", 2))
	if err != nil {
		t.Fatal(err)
	}

	var order []string
	for k := 0; k < 8; k++ {
		j, i, ok := s.claim()
		if !ok {
			t.Fatal("claim returned stopped")
		}
		order = append(order, j.ID())
		// Drive the slot to completion in claim order, as a 1-worker pool
		// would: completions interleave between the jobs.
		if err := j.plan.RunJob(i); err != nil {
			t.Fatal(err)
		}
		s.slotDone(j, i, nil)
	}
	want := []string{ja.ID(), jb.ID(), ja.ID(), jb.ID(), ja.ID(), jb.ID(), ja.ID(), jb.ID()}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("claim order %v, want round-robin %v", order, want)
	}
	for _, j := range []*Job{ja, jb} {
		st := j.Status()
		if st.State != string(JobDone) || st.Rows != st.RowsTotal || st.Simulated != 4 {
			t.Errorf("job %s not cleanly done: %+v", j.ID(), st)
		}
	}

	// The interleaved schedule changed nothing: rows match a plain
	// library run of the same request.
	exp, err := tinyReq("a", 1).Experiment()
	if err != nil {
		t.Fatal(err)
	}
	want2, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ja.Rows(), want2) {
		t.Errorf("scheduler rows differ from library rows")
	}
}

// TestBackpressure: admission is bounded — beyond capacity concurrent
// jobs, Submit reports ErrBusy (HTTP 429) instead of queueing without
// limit.
func TestBackpressure(t *testing.T) {
	s := idleScheduler(2, 0) // no workers: nothing drains
	if _, err := s.Submit(tinyReq("a", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(tinyReq("b", 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(tinyReq("c", 3)); !errors.Is(err, ErrBusy) {
		t.Fatalf("third submit: error %v, want ErrBusy", err)
	}
	// A finished job frees its admission slot.
	ja, _ := s.Job("j1")
	if _, err := s.Cancel(ja.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(tinyReq("c", 3)); err != nil {
		t.Fatalf("submit after release: %v", err)
	}
}

// TestCancelPrompt: DELETE-style cancellation turns the job terminal
// immediately with ctx.Err(), without waiting for queued slots, and the
// dispatch ring stops handing out its slots.
func TestCancelPrompt(t *testing.T) {
	s := idleScheduler(4, 0) // no workers: every slot still queued
	j, err := s.Submit(tinyReq("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := s.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancellation took %v, want prompt", d)
	}
	if !errors.Is(j.Err(), context.Canceled) {
		t.Errorf("cancelled job error %v, want context.Canceled", j.Err())
	}
	if st := j.Status(); st.State != string(JobCancelled) {
		t.Errorf("state %q, want cancelled", st.State)
	}
	// Its slots are no longer claimable: submit a fresh job and verify the
	// next claims all belong to it.
	j2, err := s.Submit(tinyReq("b", 2))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		got, _, ok := s.claim()
		if !ok || got != j2 {
			t.Fatalf("claim %d handed out job %v, want %s", k, got, j2.ID())
		}
	}
	// Cancelling twice (or after terminal) is a no-op.
	if _, err := s.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel("nope"); err == nil {
		t.Error("cancel of unknown id succeeded")
	}
}

// TestCancelDiscardsInFlight: a slot simulating while its job is cancelled
// finishes in the background and is discarded — the job stays cancelled
// with ctx.Err() and emits no further rows.
func TestCancelDiscardsInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	s := idleScheduler(4, 0)
	j, err := s.Submit(tinyReq("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	_, i, ok := s.claim()
	if !ok {
		t.Fatal("claim failed")
	}
	if err := j.plan.RunJob(i); err != nil { // slot "in flight"
		t.Fatal(err)
	}
	if _, err := s.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	s.slotDone(j, i, nil) // the in-flight slot lands after cancellation
	st := j.Status()
	if st.State != string(JobCancelled) || st.Rows != 0 {
		t.Errorf("post-cancel completion changed the job: %+v", st)
	}
	if !errors.Is(j.Err(), context.Canceled) {
		t.Errorf("error %v, want context.Canceled", j.Err())
	}
}

// TestCacheHitBitIdentical: resubmitting an identical request is served
// from the result cache — zero simulations executed, Cached marker set —
// and the rows are byte-identical through the CSV writer.
func TestCacheHitBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	s := New(2, 4, 8)
	defer s.Close()
	j1, err := s.Submit(tinyReq("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1)
	if st := j1.Status(); st.Cached || st.Simulated != 4 {
		t.Fatalf("first run unexpectedly cached: %+v", st)
	}

	j2, err := s.Submit(tinyReq("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j2) // already terminal: cache hits complete at submit
	st := j2.Status()
	if !st.Cached {
		t.Fatalf("resubmit not served from cache: %+v", st)
	}
	if st.Simulated != 0 {
		t.Errorf("cache hit executed %d simulations, want 0", st.Simulated)
	}
	var csv1, csv2 bytes.Buffer
	if err := dynlb.WriteRowsCSV(&csv1, j1.Rows()); err != nil {
		t.Fatal(err)
	}
	if err := dynlb.WriteRowsCSV(&csv2, j2.Rows()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
		t.Error("cache-hit rows are not byte-identical to the original run")
	}
	// The parallelism hint is not part of the identity: a different
	// workers value still hits.
	req := tinyReq("a", 1)
	req.Workers = 7
	j3, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !j3.Status().Cached {
		t.Error("workers-only difference missed the cache")
	}
	// A row-changing difference does not.
	j4, err := s.Submit(tinyReq("a", 99))
	if err != nil {
		t.Fatal(err)
	}
	if j4.Status().Cached {
		t.Error("different seed hit the cache")
	}
	waitJob(t, j4)
}

// TestSubmitValidation: malformed requests are rejected at submit, before
// consuming an admission slot.
func TestSubmitValidation(t *testing.T) {
	s := idleScheduler(1, 0)
	if _, err := s.Submit(&dynlb.ExperimentRequest{}); err == nil {
		t.Error("empty request admitted")
	}
	if _, err := s.Submit(&dynlb.ExperimentRequest{Figure: "nope"}); err == nil {
		t.Error("unknown figure admitted")
	}
	// Neither consumed capacity.
	if _, err := s.Submit(tinyReq("a", 1)); err != nil {
		t.Fatalf("valid submit after rejects: %v", err)
	}
}

// TestCacheEviction: the cache is bounded FIFO.
func TestCacheEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("a", nil)
	c.Put("b", nil)
	c.Put("c", nil) // evicts a
	if _, ok := c.Get("a"); ok {
		t.Error("oldest entry not evicted")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("entry %q evicted early", k)
		}
	}
	entries, hits, misses := c.Stats()
	if entries != 2 || hits != 2 || misses != 1 {
		t.Errorf("stats (%d, %d, %d), want (2, 2, 1)", entries, hits, misses)
	}
	// Size 0 disables caching entirely.
	c0 := NewCache(0)
	c0.Put("a", nil)
	if _, ok := c0.Get("a"); ok {
		t.Error("zero-size cache stored an entry")
	}
}

// TestWorkerPanicFailsJobOnly: a panic inside one job's simulation slot is
// recovered by the worker — the job turns failed with the panic visible in
// its error state, while the pool keeps serving other jobs instead of
// crashing the daemon.
func TestWorkerPanicFailsJobOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	s := New(1, 4, 0)
	defer s.Close()
	// No wire request can make a plan panic, so inject one through the slot
	// executor: the job named "boom" poisons every slot it is handed.
	s.runSlot = func(j *Job, i int) error {
		if j.label == "boom" {
			panic("injected simulation panic")
		}
		return j.plan.RunJob(i)
	}

	boom, err := s.Submit(tinyReq("boom", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, boom)
	st := boom.Status()
	if st.State != string(JobFailed) {
		t.Fatalf("panicking job in state %q, want failed: %+v", st.State, st)
	}
	if !strings.Contains(st.Error, "panicked") || !strings.Contains(st.Error, "injected simulation panic") {
		t.Errorf("error state %q does not surface the panic", st.Error)
	}

	// The worker survived: a healthy job submitted afterwards completes.
	ok, err := s.Submit(tinyReq("ok", 2))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, ok)
	if st := ok.Status(); st.State != string(JobDone) || st.Rows != st.RowsTotal {
		t.Errorf("job after panic not cleanly done: %+v", st)
	}
}

// TestRetryAfter: the 429 hint scales with the unclaimed backlog and the
// observed mean slot time, falls back to 1 s before any observation, and
// clamps so a pathological backlog still yields an honorable header.
func TestRetryAfter(t *testing.T) {
	s := idleScheduler(4, 0)
	if got := s.RetryAfter(); got != 1 {
		t.Errorf("RetryAfter with no backlog = %d, want 1", got)
	}
	// Two 4-slot jobs queued, nothing claimed: backlog 8 on 1 worker.
	for i, name := range []string{"a", "b"} {
		if _, err := s.Submit(tinyReq(name, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.RetryAfter(); got != 1 {
		t.Errorf("RetryAfter before any observation = %d, want 1", got)
	}
	s.noteSlotTime(2 * time.Second)
	if got := s.RetryAfter(); got != 16 {
		t.Errorf("RetryAfter(backlog 8, mean 2s, 1 worker) = %d, want 16", got)
	}
	// Sub-second drains round up to the minimum of 1.
	s2 := idleScheduler(4, 0)
	if _, err := s2.Submit(tinyReq("a", 1)); err != nil {
		t.Fatal(err)
	}
	s2.noteSlotTime(10 * time.Millisecond)
	if got := s2.RetryAfter(); got != 1 {
		t.Errorf("RetryAfter(tiny mean) = %d, want 1", got)
	}
	// A huge mean clamps at the 60 s ceiling.
	s2.noteSlotTime(10 * time.Hour)
	if got := s2.RetryAfter(); got != 60 {
		t.Errorf("RetryAfter(huge mean) = %d, want 60", got)
	}
}

// TestClose: closing the scheduler cancels outstanding jobs and rejects
// new submissions.
func TestClose(t *testing.T) {
	s := New(1, 4, 0)
	j, err := s.Submit(tinyReq("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	waitJob(t, j)
	st := j.Status()
	if st.State != string(JobDone) && st.State != string(JobCancelled) {
		t.Errorf("job after Close in state %q", st.State)
	}
	if _, err := s.Submit(tinyReq("b", 2)); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after Close: %v, want ErrClosed", err)
	}
}

// TestUseRemote: a scheduler with an external slot executor must route
// every claimed slot through it and still produce rows identical to the
// default in-process executor — the contract dist.Coordinator.RunJob
// plugs into.
func TestUseRemote(t *testing.T) {
	want := func() []dynlb.Row {
		s := New(2, 4, 0)
		defer s.Close()
		j, err := s.Submit(tinyReq("remote", 7))
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		return j.Rows()
	}()

	var calls atomic.Int64
	s := New(2, 4, 0)
	defer s.Close()
	s.UseRemote(func(ctx context.Context, p *dynlb.Plan, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		calls.Add(1)
		// Stand-in for a remote worker: compute the job from its exact
		// inputs and store the result, exactly like dist.Coordinator.RunJob.
		cfg, st := p.Job(i)
		r, err := dynlb.Run(cfg, st)
		if err != nil {
			return err
		}
		p.SetJobResult(i, r)
		return nil
	})
	j, err := s.Submit(tinyReq("remote", 7))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if err := j.Err(); err != nil {
		t.Fatalf("remote-executed job failed: %v", err)
	}
	if got := calls.Load(); got != int64(j.Status().Simulations) {
		t.Errorf("remote executor ran %d slots, want %d", got, j.Status().Simulations)
	}
	if !reflect.DeepEqual(j.Rows(), want) {
		t.Error("remote-executed rows differ from in-process rows")
	}
}
