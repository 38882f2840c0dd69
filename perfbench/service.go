package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"dynlb"
	"dynlb/internal/service"
)

const (
	// mixRate is the offered load of service-mix in requests per second,
	// half fresh and half cache hits: 500 samples of each kind in a
	// 20-second window, at a load light enough that queueing does not
	// magnify every stall.
	mixRate = 50.0
	// minClean is the least number of requests of a kind the percentiles
	// are taken over when requests near stolen CPU time are left out. Below
	// 200 a p95 has fewer than ten samples beyond it, which the run record
	// flags; under heavy steal that is still the steadier choice.
	minClean = 100
	// hotSet is the number of requests completed during set-up that the
	// cache hits resubmit.
	hotSet = 8
)

// mixRequest is the document of one service-mix request: two short
// simulations (10 PEs, 0.1 s warm-up, 0.4 s measured, about a millisecond
// of host time each) under two dynamic strategies, at the given seed, so
// that the service's own work is a large share of every request. Distinct
// seeds are distinct cache keys.
func mixRequest(seed int64) *dynlb.ExperimentRequest {
	base := dynlb.DefaultConfig()
	base.NPE = 10
	base.JoinQPSPerPE = 0.25
	base.Warmup = dynlb.Seconds(0.1)
	base.MeasureTime = dynlb.Seconds(0.4)
	return &dynlb.ExperimentRequest{
		Sweep: &dynlb.SweepSpec{Name: "mix", Base: &base, Strategies: []string{"OPT-IO-CPU", "pmu-cpu+LUM"}},
		Seed:  &seed,
	}
}

// serviceEnv is an in-process dynlbd: scheduler, HTTP server on a loopback
// listener and a client limited to nproc connections.
type serviceEnv struct {
	sched     *service.Scheduler
	srv       *http.Server
	url       string
	transport *http.Transport
	client    *http.Client
	hotCSV    [][]byte
}

func startService(workers int, hot [][]byte) (*serviceEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &serviceEnv{sched: service.New(workers, 1024, 4096), url: "http://" + ln.Addr().String()}
	e.srv = &http.Server{Handler: service.NewServer(e.sched)}
	go e.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed once close runs
	e.transport = &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}
	e.client = &http.Client{Transport: e.transport}
	resp, err := e.client.Get(e.url + "/healthz")
	if err != nil {
		e.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		e.close()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	// Fill the cache with the hot set, all submitted before any is
	// collected.
	ids := make([]string, len(hot))
	for i, body := range hot {
		st, _, err := e.submit(body)
		if err != nil || st.Cached {
			e.close()
			return nil, fmt.Errorf("hot request %d: cached %v, %v", i, st.Cached, err)
		}
		ids[i] = st.ID
	}
	for _, id := range ids {
		data, _, err := e.collect(id)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("hot request %s: %w", id, err)
		}
		e.hotCSV = append(e.hotCSV, data)
	}
	return e, nil
}

func (e *serviceEnv) close() {
	e.srv.Close()
	e.sched.Close()
	e.transport.CloseIdleConnections()
}

// submitStatus is the part of the service's job status the client reads.
type submitStatus struct {
	ID     string `json:"id"`
	Cached bool   `json:"cached"`
}

// errRejected marks a 429 answer.
var errRejected = errors.New("rejected with 429")

// submit posts a request document.
func (e *serviceEnv) submit(body []byte) (submitStatus, time.Duration, error) {
	var st submitStatus
	t := time.Now()
	resp, err := e.client.Post(e.url+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	d := time.Since(t)
	switch {
	case err != nil:
		return st, d, err
	case resp.StatusCode == http.StatusTooManyRequests:
		return st, d, errRejected
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		return st, d, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	err = json.Unmarshal(data, &st)
	return st, d, err
}

// collect fetches a job's rows as CSV; the server answers once the job is
// done.
func (e *serviceEnv) collect(id string) ([]byte, time.Duration, error) {
	t := time.Now()
	resp, err := e.client.Get(e.url + "/v1/experiments/" + id + "/rows?format=csv")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	d := time.Since(t)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("collect: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return data, d, err
}

// mixOp is one scheduled request of the open loop.
type mixOp struct {
	hit   bool
	index int // fresh request index, or hot-set index for a hit
	seed  int64
	body  []byte

	cached           bool
	csv              []byte
	submit, collect  time.Duration
	rejected, traced bool
}

// slotLog records the simulation slots run through the traced UseRemote
// hook, by request seed.
type slotLog struct {
	mu    sync.Mutex
	roots map[int64]int // request seed -> root span
	slots map[int64][]time.Duration
	total time.Duration
	n     int
}

func runService(ctx context.Context, o runOpts) (*runResult, error) {
	res := newRunResult()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rng := rand.New(rand.NewSource(o.seed))
	n := int(mixRate*o.seconds + 0.5)
	nMiss := n / 2
	seeds := dynlb.ReplicateSeeds(o.seed, hotSet+nMiss)
	body := func(seed int64) []byte {
		data, err := json.Marshal(mixRequest(seed))
		if err != nil {
			panic(err) // a Config always marshals
		}
		return data
	}
	hot := make([][]byte, hotSet)
	for i := range hot {
		hot[i] = body(seeds[i])
	}

	// The schedule: n arrivals of a Poisson process conditioned on its
	// count, half of them fresh requests, the rest hits on the hot set.
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * o.seconds * float64(time.Second))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	ops := make([]*mixOp, n)
	kinds := rng.Perm(n)
	fresh := 0
	for i := range ops {
		if kinds[i] < nMiss {
			s := seeds[hotSet+fresh]
			ops[i] = &mixOp{index: fresh, seed: s, body: body(s)}
			fresh++
		} else {
			h := rng.Intn(hotSet)
			ops[i] = &mixOp{hit: true, index: h, seed: seeds[h], body: hot[h]}
		}
	}

	var env *serviceEnv
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if env != nil {
			env.close()
		}
		var err error
		if env, err = startService(o.workers, hot); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t).Seconds())
	}
	defer env.close()

	// A traced run switches the scheduler to a timing slot hook halfway
	// through; the first half is its untraced baseline.
	slots := &slotLog{roots: map[int64]int{}, slots: map[int64][]time.Duration{}}
	half := time.Duration(o.seconds / 2 * float64(time.Second))
	var switchOnce sync.Once
	hook := func(ctx context.Context, p *dynlb.Plan, i int) error {
		cfg, _ := p.Job(i)
		slots.mu.Lock()
		parent, ok := slots.roots[cfg.Seed]
		slots.mu.Unlock()
		if !ok {
			parent = -1
		}
		id := "req-" + strconv.FormatInt(cfg.Seed, 10)
		sp := tr.begin("service.slot", id, parent)
		t := time.Now()
		rj := tr.begin("engine.runjob", id, sp)
		err := p.RunJob(i)
		tr.end(rj)
		d := time.Since(t)
		tr.end(sp)
		slots.mu.Lock()
		slots.slots[cfg.Seed] = append(slots.slots[cfg.Seed], d)
		slots.total += d
		slots.n++
		slots.mu.Unlock()
		return err
	}

	sampler := startStealSampler(50*time.Millisecond, o.workers)
	start := time.Now()
	samples := openLoop(ctx, due, func(i int) error {
		op := ops[i]
		if tr != nil && due[i] >= half {
			switchOnce.Do(func() { env.sched.UseRemote(hook) })
			op.traced = true
		}
		id := "req-" + strconv.FormatInt(op.seed, 10)
		root := tr.begin("bench.request", id, -1)
		defer tr.end(root)
		if !op.hit && tr != nil {
			slots.mu.Lock()
			slots.roots[op.seed] = root
			slots.mu.Unlock()
		}
		sp := tr.begin("service.submit", id, root)
		st, d, err := env.submit(op.body)
		tr.end(sp)
		op.submit = d
		if err != nil {
			op.rejected = errors.Is(err, errRejected)
			return err
		}
		op.cached = st.Cached
		sp = tr.begin("service.collect", id, root)
		op.csv, op.collect, err = env.collect(st.ID)
		tr.end(sp)
		return err
	})
	sampler.stopSampling()
	wall := time.Duration(0)
	for _, s := range samples {
		if s.Done > wall {
			wall = s.Done
		}
	}
	if len(samples) > 0 {
		wall -= samples[0].Due
	}
	res.meta["window_s"] = time.Since(start).Seconds()

	// Check every answer: kinds must match, hits must return the bytes of
	// the miss that filled their cache entry, fresh rows must equal an
	// in-process run of the same document.
	// A stolen slice of CPU time delays every request in flight by its full
	// length, which no averaging undoes; the percentiles therefore leave out
	// requests near which any stolen time was counted, as long as minClean
	// requests of the kind remain.
	var missMS, hitMS, lateMS, rawMissMS, rawHitMS, cleanMissMS, cleanHitMS []float64
	var missMSFirst, missMSSecond []float64
	completed, rejected, cachedN := 0, 0, 0
	freshOps := make([]*mixOp, nMiss)
	for i, s := range samples {
		op := ops[i]
		res.attempted++
		lateMS = append(lateMS, float64(s.lateness())/1e6)
		if op.rejected {
			rejected++
		}
		if op.cached {
			cachedN++
		}
		if !op.hit {
			freshOps[op.index] = op
		}
		switch {
		case s.Err != nil:
			res.fail(1, fmt.Sprintf("request %d: %v", i, s.Err))
			continue
		case op.cached != op.hit:
			res.fail(1, fmt.Sprintf("request %d: cached %v, want %v", i, op.cached, op.hit))
			continue
		case op.hit && !bytes.Equal(op.csv, env.hotCSV[op.index]):
			res.fail(1, fmt.Sprintf("request %d: hit rows differ from the miss that filled the cache", i))
			continue
		}
		completed++
		// Latency without the CPU time stolen from the machine meanwhile.
		ms := float64(sampler.adjust(start.Add(s.Due), s.latency())) / 1e6
		raw := float64(s.latency()) / 1e6
		clean := sampler.ticksBetween(start.Add(s.Due), start.Add(s.Done)) == 0
		if op.hit {
			hitMS = append(hitMS, ms)
			rawHitMS = append(rawHitMS, raw)
			if clean {
				cleanHitMS = append(cleanHitMS, raw)
			}
			continue
		}
		missMS = append(missMS, ms)
		rawMissMS = append(rawMissMS, raw)
		if clean {
			cleanMissMS = append(cleanMissMS, raw)
		}
		if s.Due < half {
			missMSFirst = append(missMSFirst, ms)
		} else {
			missMSSecond = append(missMSSecond, ms)
		}
	}

	st := &simStats{}
	verifyStart := time.Now()
	var csvNS int64
	var csvBytes, csvRows int
	var allRows []dynlb.Row
	var allCSV bytes.Buffer
	for i := 0; i < hotSet; i++ {
		allCSV.Write(env.hotCSV[i])
	}
	for _, op := range freshOps {
		req := mixRequest(op.seed)
		req.Workers = o.workers
		exp, err := req.Experiment()
		if err != nil {
			return nil, err
		}
		id := "verify-" + strconv.FormatInt(op.seed, 10)
		var rows []dynlb.Row
		if tr == nil {
			rows, err = exp.Run(ctx)
		} else {
			root := tr.begin("bench.verify", id, -1)
			var p *dynlb.Plan
			if p, err = compilePlan(tr, exp, id, root, st); err == nil {
				err = runPlanTraced(tr, p, o.workers, id, root, st, func(rs []dynlb.Row) { rows = append(rows, rs...) })
			}
			tr.end(root)
		}
		if err != nil {
			return nil, fmt.Errorf("verify fresh request %d: %w", op.index, err)
		}
		sp := tr.begin("codec.csv", id, -1)
		t := time.Now()
		want, err := encodeCSV(rows)
		csvNS += int64(time.Since(t))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		csvBytes += len(want)
		csvRows += len(rows)
		allRows = append(allRows, rows...)
		allCSV.Write(want)
		if op.csv != nil && !op.cached && !bytes.Equal(op.csv, want) {
			res.fail(1, fmt.Sprintf("fresh request %d: rows differ from an in-process run", op.index))
		}
	}
	res.meta["verify_s"] = time.Since(verifyStart).Seconds()
	res.fingerprint = append(res.fingerprint, rowsFingerprint(0, o.seed, allRows, allCSV.Bytes(), st.events, st.spawns))

	res.e2e["wall_s"] = wall.Seconds()
	res.e2e["completed_rps"] = ratio(float64(completed), wall.Seconds())
	res.meta["clean_samples"] = map[string]int{"miss": len(cleanMissMS), "hit": len(cleanHitMS)}
	if len(cleanMissMS) >= minClean {
		missMS = cleanMissMS
	}
	if len(cleanHitMS) >= minClean {
		hitMS = cleanHitMS
	}
	res.latencies(missMS, hitMS)
	res.meta["raw_latency_ms"] = map[string]float64{
		"miss_p50": median(rawMissMS), "miss_p95": pct(rawMissMS, 0.95).Value,
		"hit_p50": median(rawHitMS), "hit_p95": pct(rawHitMS, 0.95).Value,
	}
	res.meta["steal_share"] = sampler.share(start, wall)
	res.meta["requests"] = n
	res.meta["offered_rps"] = mixRate
	res.meta["client_connections"] = o.workers
	res.meta["generator_lateness_ms"] = map[string]pctStat{"p50": pct(lateMS, 0.5), "p95": pct(lateMS, 0.95), "max": pct(lateMS, 1)}

	if !o.trace {
		return res, nil
	}
	m := res.layer
	st.layerMetrics(m)
	var submitMS, collectMS, waitMS []float64
	for i, op := range ops {
		if op.submit > 0 {
			submitMS = append(submitMS, float64(op.submit)/1e6)
		}
		if op.hit && op.collect > 0 {
			collectMS = append(collectMS, float64(op.collect)/1e6)
		}
		if !op.hit && op.traced && samples[i].Err == nil {
			var crit time.Duration
			for _, d := range slots.slots[op.seed] {
				if d > crit {
					crit = d
				}
			}
			waitMS = append(waitMS, float64(samples[i].latency()-crit)/1e6)
		}
	}
	m["service.submit_ms"] = mean(submitMS)
	m["service.collect_ms"] = mean(collectMS)
	m["service.slot_ms"] = ratio(float64(slots.total)/1e6, float64(slots.n))
	m["service.queue_wait_ms"] = median(waitMS)
	m["service.cache_hit_ratio"] = ratio(float64(cachedN), float64(n))
	m["service.rejected_ratio"] = ratio(float64(rejected), float64(n))
	m["codec.csv_ms"] = ratio(float64(csvNS), float64(len(freshOps))) / 1e6
	m["codec.csv_bytes_per_row"] = ratio(float64(csvBytes), float64(csvRows))
	// The slot hook ran for the second half only.
	m["experiment.tail_idle_ratio"] = 1 - ratio(slots.total.Seconds(), float64(o.workers)*(wall.Seconds()-half.Seconds()))
	m["trace.overhead_ratio"] = ratio(median(missMSSecond), median(missMSFirst)) - 1
	res.selfTimes(tr, n)
	res.tr = tr
	return res, nil
}
