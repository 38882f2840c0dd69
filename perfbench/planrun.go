package main

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dynlb"
	"dynlb/internal/core"
	"dynlb/internal/engine"
	"dynlb/internal/sim"
)

// simStats sums what the traced plan runner observes across simulations: host
// time in each layer call plus the kernel, engine and control-node counters
// of every finished System.
type simStats struct {
	sims                                int64
	newNS, runNS, jobNS                 int64
	events, handoffs, inline            int64
	spawns, reuses, light, overflow     int64
	joins, oltp, aborts, tempIO         int64
	decisions, reports, decideNS        int64
	completeNS, completes, planNS, plan int64
	mallocs, allocBytes                 int64
}

func (s *simStats) addJob(j jobStat) {
	s.sims++
	s.newNS += j.newNS
	s.runNS += j.runNS
	s.jobNS += j.jobNS
	s.decideNS += j.decideNS
	s.events += j.kernel.Dispatched
	s.handoffs += j.kernel.Handoffs
	s.inline += j.kernel.InlineWakes
	s.spawns += j.kernel.Spawns
	s.reuses += j.kernel.SpawnReuses
	s.light += j.kernel.LightSpawns
	s.overflow += j.kernel.OverflowPushes
	s.joins += j.res.JoinsDone
	s.oltp += j.res.OLTPDone
	s.aborts += j.res.OLTPAborts + j.res.Aborts
	s.tempIO += j.res.TempIOPages
	s.decisions += j.decisions
	s.reports += j.reports
}

// layerMetrics fills the sim, engine, core and experiment metrics of a
// traced run from the summed statistics.
func (s *simStats) layerMetrics(m map[string]float64) {
	n := float64(s.sims)
	m["sim.events_per_sim"] = ratio(float64(s.events), n)
	m["sim.ns_per_event"] = ratio(float64(s.runNS), float64(s.events))
	m["sim.handoffs_per_event"] = ratio(float64(s.handoffs), float64(s.events))
	m["sim.inline_wakes_per_event"] = ratio(float64(s.inline), float64(s.events))
	m["sim.spawns_per_sim"] = ratio(float64(s.spawns), n)
	m["sim.spawn_reuse_ratio"] = ratio(float64(s.reuses), float64(s.spawns))
	m["sim.light_spawns_per_sim"] = ratio(float64(s.light), n)
	m["sim.overflow_pushes_per_sim"] = ratio(float64(s.overflow), n)

	m["engine.new_ms"] = ratio(float64(s.newNS), n) / 1e6
	m["engine.run_ms"] = ratio(float64(s.runNS), n) / 1e6
	m["engine.allocs_per_sim"] = ratio(float64(s.mallocs), n)
	m["engine.alloc_mb_per_sim"] = ratio(float64(s.allocBytes), n) / (1 << 20)
	m["engine.joins_per_sim"] = ratio(float64(s.joins), n)
	m["engine.oltp_txns_per_sim"] = ratio(float64(s.oltp), n)
	m["engine.aborts_per_sim"] = ratio(float64(s.aborts), n)
	m["engine.temp_io_pages_per_sim"] = ratio(float64(s.tempIO), n)

	m["core.decisions_per_sim"] = ratio(float64(s.decisions), n)
	m["core.decide_ns"] = ratio(float64(s.decideNS), float64(s.decisions))
	m["core.decide_share"] = ratio(float64(s.decideNS), float64(s.runNS))
	m["core.reports_per_sim"] = ratio(float64(s.reports), n)

	m["experiment.plan_ms"] = ratio(float64(s.planNS), float64(s.plan)) / 1e6
	m["experiment.complete_ms"] = ratio(float64(s.completeNS), float64(s.completes)) / 1e6
}

// jobStat is what one traced simulation reports to the collector.
type jobStat struct {
	i                             int
	err                           error
	newNS, runNS, jobNS, decideNS int64
	decisions, reports            int64
	kernel                        sim.KernelStats
	res                           dynlb.Results
}

// timedStrategy delegates to a strategy and records one span per Decide
// call. The simulation kernel runs one process at a time and hands control
// over through channels, so the span slice needs no lock.
type timedStrategy struct {
	core.Strategy
	tr     *tracer
	id     string
	parent int
	spans  []span
	ns     int64
}

func (s *timedStrategy) Decide(q core.QueryInfo, v *core.View, rng *rand.Rand) core.Decision {
	start := s.tr.now()
	d := s.Strategy.Decide(q, v, rng)
	end := s.tr.now()
	s.ns += end - start
	s.spans = append(s.spans, span{Name: "core.decide", ID: s.id, Parent: s.parent, Start: start, End: end})
	return d
}

// runJobTraced simulates plan job i through engine.New and System.Run with a
// timing wrapper around the strategy, and records the Results in the plan
// exactly as Plan.RunJob would.
func runJobTraced(tr *tracer, p *dynlb.Plan, i int, id string, parent int) jobStat {
	js := jobStat{i: i}
	jobSpan := tr.begin("bench.job", id, parent)
	t0 := time.Now()
	cfg, st := p.Job(i)
	ts := &timedStrategy{Strategy: st, tr: tr, id: id}
	newSpan := tr.begin("engine.new", id, jobSpan)
	t1 := time.Now()
	sys, err := engine.New(cfg, ts)
	js.newNS = int64(time.Since(t1))
	tr.end(newSpan)
	if err != nil {
		tr.end(jobSpan)
		js.err = err
		return js
	}
	runSpan := tr.begin("engine.run", id, jobSpan)
	ts.parent = runSpan
	t2 := time.Now()
	res := sys.Run()
	js.runNS = int64(time.Since(t2))
	tr.end(runSpan)
	tr.add(ts.spans)

	js.kernel = sys.Kernel().Stats()
	js.decisions = sys.Control().Decisions()
	js.reports = sys.Control().Reports()
	js.decideNS = ts.ns
	js.res = res
	p.SetJobResult(i, res)
	js.jobNS = int64(time.Since(t0))
	tr.end(jobSpan)
	return js
}

// runPlanTraced drives a compiled plan on workers goroutines through the
// plan's slot hooks (Job, SetJobResult, Complete), timing every layer call.
// Rows reach deliver in the plan's deterministic order, so the bytes equal
// those of Experiment.Run. Allocations are read from the runtime around the
// whole plan, so they include the runner's own few.
func runPlanTraced(tr *tracer, p *dynlb.Plan, workers int, id string, parent int, st *simStats, deliver func([]dynlb.Row)) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	defer func() {
		runtime.ReadMemStats(&ms1)
		st.mallocs += int64(ms1.Mallocs - ms0.Mallocs)
		st.allocBytes += int64(ms1.TotalAlloc - ms0.TotalAlloc)
	}()
	first, err := p.Start()
	if err != nil {
		return err
	}
	deliver(first)
	n := p.NumJobs()
	done := make(chan jobStat, n)
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				done <- runJobTraced(tr, p, i, id, parent)
			}
		}()
	}
	defer wg.Wait()
	for k := 0; k < n; k++ {
		js := <-done
		if js.err != nil {
			stop.Store(true)
			return js.err
		}
		st.addJob(js)
		c := tr.begin("experiment.complete", id, parent)
		t := time.Now()
		rows, err := p.Complete(js.i)
		st.completeNS += int64(time.Since(t))
		st.completes++
		tr.end(c)
		if err != nil {
			stop.Store(true)
			return err
		}
		deliver(rows)
	}
	return nil
}

// compilePlan times Experiment.Plan.
func compilePlan(tr *tracer, exp *dynlb.Experiment, id string, parent int, st *simStats) (*dynlb.Plan, error) {
	s := tr.begin("experiment.plan", id, parent)
	t := time.Now()
	p, err := exp.Plan()
	st.planNS += int64(time.Since(t))
	st.plan++
	tr.end(s)
	return p, err
}
