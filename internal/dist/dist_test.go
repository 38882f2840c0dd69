package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynlb"
	"dynlb/internal/retry"
	"dynlb/internal/service"
)

// tinySweep returns a small but non-trivial experiment: 2 strategies × 3
// sweep points × 2 replicates = 12 physical jobs across 6 slots.
func tinySweep() *dynlb.Experiment {
	cfg := dynlb.DefaultConfig()
	cfg.NPE = 8
	cfg.JoinQPSPerPE = 0.1
	cfg.Warmup = dynlb.Seconds(1)
	cfg.MeasureTime = dynlb.Seconds(3)
	sweep := dynlb.Sweep{
		Name: "dist-test",
		Base: cfg,
		Strategies: []dynlb.Strategy{
			dynlb.MustStrategy("psu-opt+RANDOM"),
			dynlb.MustStrategy("MIN-IO-SUOPT"),
		},
		Axes: []dynlb.Axis{
			dynlb.IntAxis("#PE", func(c *dynlb.Config, n int) { c.NPE = n }, 4, 6, 8),
		},
	}
	return dynlb.NewExperiment(sweep, dynlb.WithReps(2))
}

func localRows(t *testing.T) []dynlb.Row {
	t.Helper()
	rows, err := tinySweep().Run(context.Background())
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	return rows
}

func rowBytes(t *testing.T, rows []dynlb.Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dynlb.WriteRowsJSON(&buf, rows); err != nil {
		t.Fatalf("encode rows: %v", err)
	}
	return buf.Bytes()
}

// TestDistributedBitIdentical is the tentpole acceptance test: the same
// sweep through a coordinator with two live workers must produce rows
// byte-identical to plain local execution.
func TestDistributedBitIdentical(t *testing.T) {
	want := rowBytes(t, localRows(t))

	w1 := httptest.NewServer(NewWorker(2))
	defer w1.Close()
	w2 := httptest.NewServer(NewWorker(2))
	defer w2.Close()

	coord := New(Options{
		Workers:      []string{w1.URL, w2.URL},
		DisableLocal: true, // prove the remote path ran
	})
	defer coord.Close()

	exp := tinySweep()
	dynlb.WithDistributed(coord)(exp)
	rows, err := exp.Run(context.Background())
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if got := rowBytes(t, rows); !bytes.Equal(got, want) {
		t.Fatalf("distributed rows differ from local rows:\n got: %s\nwant: %s", got, want)
	}

	rep := coord.Report()
	if rep == nil {
		t.Fatal("no report after ExecutePlan")
	}
	if rep.LiveAtStart != 2 {
		t.Fatalf("LiveAtStart = %d, want 2", rep.LiveAtStart)
	}
	if rep.LocalJobs != 0 {
		t.Fatalf("LocalJobs = %d, want 0 with DisableLocal", rep.LocalJobs)
	}
	seen := map[string]int{}
	for _, j := range rep.Jobs {
		seen[j.Worker]++
	}
	if len(seen) != 2 {
		t.Fatalf("placement used %d workers (%v), want both", len(seen), seen)
	}
}

// crashingHandler proxies to a real worker but hard-drops every connection
// after the first okAfter successful job requests — the coordinator sees a
// mid-sweep worker death and must re-dispatch to the survivor.
type crashingHandler struct {
	inner   http.Handler
	served  atomic.Int64
	okAfter int64
}

func (h *crashingHandler) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	if req.URL.Path == "/v1/jobs" {
		if h.served.Add(1) > h.okAfter {
			panic(http.ErrAbortHandler) // kills the connection without a response
		}
		h.inner.ServeHTTP(rw, req)
		return
	}
	if h.served.Load() >= h.okAfter {
		// Quota used up: the whole worker is dead — health probes fail too,
		// so it never rejoins the fleet.
		panic(http.ErrAbortHandler)
	}
	h.inner.ServeHTTP(rw, req)
}

// TestWorkerDeathRedispatch kills one of two workers after its first job
// request; the sweep must still complete with rows bit-identical to local
// execution, exercising the re-dispatch path (asserted via the report).
func TestWorkerDeathRedispatch(t *testing.T) {
	want := rowBytes(t, localRows(t))

	healthy := httptest.NewServer(NewWorker(2))
	defer healthy.Close()
	crash := &crashingHandler{inner: NewWorker(2), okAfter: 1}
	crashing := httptest.NewServer(crash)
	defer crashing.Close()

	coord := New(Options{
		Workers: []string{healthy.URL, crashing.URL},
		// DisableLocal keeps the re-dispatch remote, proving the failover
		// lands on the healthy worker rather than the local fallback.
		DisableLocal: true,
		Backoff:      retry.Backoff{Base: 10 * time.Millisecond, Cap: 50 * time.Millisecond},
		MaxAttempts:  5,
		Logf:         t.Logf,
	})
	defer coord.Close()

	exp := tinySweep()
	dynlb.WithDistributed(coord)(exp)
	rows, err := exp.Run(context.Background())
	if err != nil {
		t.Fatalf("distributed run with crashing worker: %v", err)
	}
	if got := rowBytes(t, rows); !bytes.Equal(got, want) {
		t.Fatal("rows after worker death differ from local rows")
	}
	rep := coord.Report()
	if rep.Redispatches == 0 {
		t.Fatalf("Redispatches = 0, want > 0 (crash not exercised); report %+v", rep)
	}
	for _, j := range rep.Jobs {
		if j.Worker == "local" {
			t.Fatalf("job %d ran locally despite DisableLocal", j.Job)
		}
	}
}

// TestNoWorkersLocalFallback: an empty (and an unreachable) fleet must
// degrade to local execution with identical rows.
func TestNoWorkersLocalFallback(t *testing.T) {
	want := rowBytes(t, localRows(t))

	for _, workers := range [][]string{nil, {"http://127.0.0.1:1"}} {
		coord := New(Options{
			Workers:      workers,
			ProbeTimeout: 200 * time.Millisecond,
		})
		exp := tinySweep()
		dynlb.WithDistributed(coord)(exp)
		rows, err := exp.Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%v: %v", workers, err)
		}
		if got := rowBytes(t, rows); !bytes.Equal(got, want) {
			t.Fatalf("workers=%v: local-fallback rows differ", workers)
		}
		rep := coord.Report()
		if rep.LiveAtStart != 0 {
			t.Fatalf("workers=%v: LiveAtStart = %d, want 0", workers, rep.LiveAtStart)
		}
		for _, j := range rep.Jobs {
			if j.Worker != "local" {
				t.Fatalf("workers=%v: job %d placed on %q, want local", workers, j.Job, j.Worker)
			}
		}
		coord.Close()
	}
}

// slowOnce delays the first job request long past the coordinator's
// RequestTimeout but answers it eventually, forcing the abandoned
// request's late reply to collide with the re-dispatched copy — a genuine
// duplicate completion.
type slowOnce struct {
	inner http.Handler
	n     atomic.Int64
	delay time.Duration
}

func (h *slowOnce) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	if req.URL.Path == "/v1/jobs" && h.n.Add(1) == 1 {
		time.Sleep(h.delay)
	}
	h.inner.ServeHTTP(rw, req)
}

// TestJobErrorRunsLocally: a worker that answers a job with an error — as
// it does when the job's Results hold a value JSON cannot carry — makes
// the coordinator run that job itself, so the rows stay those of a local
// run.
func TestJobErrorRunsLocally(t *testing.T) {
	failing := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/v1/jobs" {
			return // healthy
		}
		var j wireJob
		if err := json.NewDecoder(req.Body).Decode(&j); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(rw).Encode(wireResult{ID: j.ID, Err: "encode results: json: unsupported value: NaN"})
	}))
	defer failing.Close()
	coord := New(Options{Workers: []string{failing.URL}})
	defer coord.Close()

	exp := tinySweep()
	dynlb.WithDistributed(coord)(exp)
	rows, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rowBytes(t, rows), rowBytes(t, localRows(t))) {
		t.Fatal("rows of locally rerun jobs differ from local rows")
	}
	rep := coord.Report()
	if rep.LiveAtStart != 1 || rep.LocalJobs != len(rep.Jobs) {
		t.Fatalf("live %d, %d of %d jobs local; want 1 live and every job local", rep.LiveAtStart, rep.LocalJobs, len(rep.Jobs))
	}
	for _, j := range rep.Jobs {
		if j.Worker != "local" || j.Attempts != 1 {
			t.Fatalf("job %d ran on %q after %d attempts, want local after 1", j.Job, j.Worker, j.Attempts)
		}
	}
}

// TestLateDuplicateDropped exercises the abandon-without-cancel path: the
// slow worker's reply arrives after the job was re-dispatched, so one
// copy must be dropped (byte-verified) and the rows stay bit-identical.
func TestLateDuplicateDropped(t *testing.T) {
	want := rowBytes(t, localRows(t))

	slow := &slowOnce{inner: NewWorker(2), delay: 1500 * time.Millisecond}
	sl := httptest.NewServer(slow)
	defer sl.Close()
	fast := httptest.NewServer(NewWorker(2))
	defer fast.Close()

	coord := New(Options{
		Workers:        []string{sl.URL, fast.URL},
		RequestTimeout: 200 * time.Millisecond,
		Backoff:        retry.Backoff{Base: 10 * time.Millisecond, Cap: 20 * time.Millisecond},
		MaxAttempts:    10,
		DisableLocal:   true,
	})
	defer coord.Close()

	exp := tinySweep()
	dynlb.WithDistributed(coord)(exp)
	rows, err := exp.Run(context.Background())
	if err != nil {
		t.Fatalf("distributed run with slow worker: %v", err)
	}
	if got := rowBytes(t, rows); !bytes.Equal(got, want) {
		t.Fatal("rows with duplicate completion differ from local rows")
	}
	// The slow request is only a duplicate if its job re-ran elsewhere
	// before the late reply landed; with a 1.5 s delay vs a 200 ms abandon
	// that is deterministic in practice.
	if rep := coord.Report(); rep.Duplicates == 0 && rep.Redispatches == 0 {
		t.Fatalf("neither duplicates nor redispatches recorded: %+v", rep)
	}
}

// lyingOnce stalls its first job request past the coordinator's
// RequestTimeout and then answers it with wrong Results.
type lyingOnce struct {
	inner http.Handler
	n     atomic.Int64
	delay time.Duration
	lied  chan struct{} // closed once the wrong answer is written
}

func (h *lyingOnce) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	if req.URL.Path != "/v1/jobs" || h.n.Add(1) != 1 {
		h.inner.ServeHTTP(rw, req)
		return
	}
	defer close(h.lied)
	var j wireJob
	if err := json.NewDecoder(req.Body).Decode(&j); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	time.Sleep(h.delay)
	raw, err := json.Marshal(dynlb.Results{Strategy: j.Strategy})
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	json.NewEncoder(rw).Encode(wireResult{ID: j.ID, Results: raw})
}

// TestLateMismatchFails: two copies of one job that differ are a
// determinism violation, even when one of them lands after RunJob
// returned; every later run on the coordinator must fail with it.
func TestLateMismatchFails(t *testing.T) {
	liar := &lyingOnce{inner: NewWorker(2), delay: 300 * time.Millisecond, lied: make(chan struct{})}
	sl := httptest.NewServer(liar)
	defer sl.Close()
	fast := httptest.NewServer(NewWorker(2))
	defer fast.Close()

	coord := New(Options{
		Workers:        []string{sl.URL, fast.URL},
		RequestTimeout: 100 * time.Millisecond,
		Backoff:        retry.Backoff{Base: 10 * time.Millisecond, Cap: 20 * time.Millisecond},
		MaxAttempts:    10,
		DisableLocal:   true,
	})
	defer coord.Close()

	p, err := tinySweep().Plan()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.RunJob(context.Background(), p, 0); err != nil {
		t.Fatalf("RunJob(0): %v", err)
	}
	select {
	case <-liar.lied:
	case <-time.After(time.Minute):
		t.Fatal("the stalled copy was never answered")
	}
	// The late copy is verified in the background.
	for deadline := time.Now().Add(time.Minute); coord.Report().Duplicates == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the late copy was never verified")
		}
	}
	err = coord.RunJob(context.Background(), p, 1)
	if err == nil || !strings.Contains(err.Error(), "determinism violation") {
		t.Fatalf("RunJob after a mismatching duplicate: %v, want a determinism violation", err)
	}
	exp := tinySweep()
	dynlb.WithDistributed(coord)(exp)
	if _, err := exp.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "determinism violation") {
		t.Fatalf("sweep after a mismatching duplicate: %v, want a determinism violation", err)
	}
}

// TestDuplicateMismatchFails pins the byte-equality assertion on
// duplicate completions: differing Results for the same job must fail the
// sweep as a determinism violation.
func TestDuplicateMismatchFails(t *testing.T) {
	a := dynlb.Results{Strategy: "x", NPE: 4, CPUUtil: 0.5}
	b := a
	if err := verifySameResults(a, b, 7); err != nil {
		t.Fatalf("identical results rejected: %v", err)
	}
	b.CPUUtil = 0.75
	if err := verifySameResults(a, b, 7); err == nil {
		t.Fatal("differing duplicate accepted")
	}
}

// TestResultsCodecRoundTrip: Results must cross the wire exactly —
// encoded by the worker, carried in a wireResult, decoded by the
// coordinator — including floats that need every digit of the shortest
// form and nested Window floats.
func TestResultsCodecRoundTrip(t *testing.T) {
	r := dynlb.Results{
		Strategy:      "psu-opt+RANDOM",
		NPE:           8,
		AvgJoinDegree: 3.0000000000000004, // forces shortest-form float fidelity
		JoinTPS:       0.1 + 0.2,
		Windows: []dynlb.Window{
			{StartMS: 0, RTMeanMS: 1e-300, JoinTPS: 0.1 + 0.2},
			{StartMS: 1000, RTMeanMS: 42.5, JoinTPS: 1.7976931348623157e308},
		},
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(wireResult{ID: 3, Results: raw}); err != nil {
		t.Fatalf("encode reply: %v", err)
	}
	var reply wireResult
	if err := json.NewDecoder(&body).Decode(&reply); err != nil {
		t.Fatalf("decode reply: %v", err)
	}
	var got dynlb.Results
	if err := json.Unmarshal(reply.Results, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip changed results: %+v != %+v", got, r)
	}
}

// TestPortableStrategy: every built-in strategy must survive the wire;
// a user-defined strategy must be detected as non-portable.
func TestPortableStrategy(t *testing.T) {
	for _, name := range dynlb.StrategyNames() {
		st := dynlb.MustStrategy(name)
		got, ok := portableStrategy(st)
		if !ok || got != name {
			t.Errorf("built-in %q not portable (got %q, %v)", name, got, ok)
		}
	}
	fd, err := dynlb.FixedDegree(7, "LUC")
	if err != nil {
		t.Fatal(err)
	}
	if name, ok := portableStrategy(fd); !ok || name != "p=7+LUC" {
		t.Errorf("FixedDegree(7, LUC) not portable: %q %v", name, ok)
	}
	if _, ok := portableStrategy(opaqueStrategy{}); ok {
		t.Error("user-defined strategy reported portable")
	}
}

type opaqueStrategy struct{ dynlb.Strategy }

func (opaqueStrategy) Name() string { return "MIN-IO" } // lies about its identity

// TestCoordinatorRunJob drives the per-job runner by hand, as the service
// backend does: remote execution with failover, storing results in the
// plan. The dead worker is listed first, so the first dispatch lands on it
// and fails over on every run.
func TestCoordinatorRunJob(t *testing.T) {
	srv := httptest.NewServer(NewWorker(2))
	defer srv.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer dead.Close()

	coord := New(Options{
		Workers: []string{dead.URL, srv.URL},
		Backoff: retry.Backoff{Base: 5 * time.Millisecond, Cap: 10 * time.Millisecond},
	})
	defer coord.Close()

	p, err := tinySweep().Plan()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.NumJobs(); i++ {
		if err := coord.RunJob(context.Background(), p, i); err != nil {
			t.Fatalf("RunJob(%d): %v", i, err)
		}
		batch, err := p.Complete(i)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, batch...)
	}
	if !p.Done() {
		t.Fatal("plan not done")
	}
	if got, want := rowBytes(t, rows), rowBytes(t, localRows(t)); !bytes.Equal(got, want) {
		t.Fatal("coordinator-executed rows differ from local rows")
	}
	if n := coord.Pool().NumLive(); n != 1 {
		t.Fatalf("NumLive = %d after failover, want 1 (dead worker stays down)", n)
	}
	if rep := coord.Report(); rep.Redispatches == 0 {
		t.Fatalf("Redispatches = 0, want > 0 (failover not exercised); report %+v", rep)
	}
}

// meetHandler holds each job request until the other worker of its pair
// has received one too, or until timeout passes.
type meetHandler struct {
	inner   http.Handler
	arrived chan struct{} // closed on the first job request
	once    sync.Once
	other   *meetHandler
	jobs    atomic.Int64
	timeout time.Duration
}

func (h *meetHandler) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	if req.URL.Path == "/v1/jobs" {
		h.jobs.Add(1)
		h.once.Do(func() { close(h.arrived) })
		select {
		case <-h.other.arrived:
		case <-time.After(h.timeout):
			http.Error(rw, "the other worker received no job", http.StatusGatewayTimeout)
			return
		}
	}
	h.inner.ServeHTTP(rw, req)
}

// TestRunJobSpreadsAcrossWorkers: concurrent RunJob calls must land on
// different idle workers. Each single-slot worker holds its request until
// the other has one too, so two calls that picked the same worker time out
// instead of meeting.
func TestRunJobSpreadsAcrossWorkers(t *testing.T) {
	a := &meetHandler{inner: NewWorker(1), arrived: make(chan struct{}), timeout: 10 * time.Second}
	b := &meetHandler{inner: NewWorker(1), arrived: make(chan struct{}), timeout: 10 * time.Second, other: a}
	a.other = b
	sa := httptest.NewServer(a)
	defer sa.Close()
	sb := httptest.NewServer(b)
	defer sb.Close()

	coord := New(Options{
		Workers:      []string{sa.URL, sb.URL},
		MaxAttempts:  1,
		DisableLocal: true,
	})
	defer coord.Close()

	p, err := tinySweep().Plan()
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = coord.RunJob(context.Background(), p, i)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("RunJob(%d): %v", i, err)
		}
	}
	if na, nb := a.jobs.Load(), b.jobs.Load(); na != 1 || nb != 1 {
		t.Fatalf("workers received %d and %d jobs, want 1 each", na, nb)
	}
}

// TestSchedulerRemoteFailover drives dynlbd -dist's path through a
// timeout: a scheduler whose slots run through Coordinator.RunJob, against
// one worker that stalls its first job past RequestTimeout and one fast
// worker. The job must finish with rows byte-identical to a local run, and
// the report must show the stalled request was re-dispatched or its late
// copy verified.
func TestSchedulerRemoteFailover(t *testing.T) {
	slow := &slowOnce{inner: NewWorker(2), delay: 1500 * time.Millisecond}
	sl := httptest.NewServer(slow)
	defer sl.Close()
	fast := httptest.NewServer(NewWorker(2))
	defer fast.Close()

	coord := New(Options{
		Workers:        []string{sl.URL, fast.URL},
		RequestTimeout: 200 * time.Millisecond,
		Backoff:        retry.Backoff{Base: 10 * time.Millisecond, Cap: 20 * time.Millisecond},
		MaxAttempts:    10,
		DisableLocal:   true,
	})
	defer coord.Close()
	sched := service.New(2, 4, 0)
	defer sched.Close()
	sched.UseRemote(coord.RunJob)

	seed := int64(7)
	base := dynlb.DefaultConfig()
	base.NPE = 8
	base.JoinQPSPerPE = 0.1
	base.Warmup = dynlb.Seconds(1)
	base.MeasureTime = dynlb.Seconds(3)
	req := &dynlb.ExperimentRequest{
		Seed: &seed,
		Reps: 2,
		Sweep: &dynlb.SweepSpec{
			Name:       "remote-failover",
			Base:       &base,
			Strategies: []string{"psu-opt+RANDOM", "MIN-IO-SUOPT"},
			Axes:       []dynlb.AxisSpec{{Name: "#PE", Field: "NPE", Values: []float64{4, 6, 8}}},
		},
	}
	exp, err := req.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.Run(context.Background())
	if err != nil {
		t.Fatalf("local run: %v", err)
	}

	j, err := sched.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(time.Minute):
		t.Fatal("job did not finish within a minute")
	}
	if err := j.Err(); err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if !bytes.Equal(rowBytes(t, j.Rows()), rowBytes(t, want)) {
		t.Fatal("scheduler rows through the fleet differ from local rows")
	}
	if rep := coord.Report(); rep.Duplicates == 0 && rep.Redispatches == 0 {
		t.Fatalf("neither duplicates nor redispatches recorded: %+v", rep)
	}
}
