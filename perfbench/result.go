package main

import (
	"sort"
	"time"
)

// runOpts are a run's command-line inputs.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int // nproc: simulation workers, GOMAXPROCS and client connections
}

// setupReps is how often a run performs its workload's set-up; setup_s is
// the median.
const setupReps = 15

// runResult collects what one run measured and checked.
type runResult struct {
	setup       []float64          // seconds per set-up repetition
	e2e         map[string]float64 // end-to-end metrics except setup_s and max_rss_mb
	layer       map[string]float64 // per-layer metrics (traced runs)
	meta        map[string]any
	attempted   int
	failed      int
	failures    []string
	fingerprint []fingerprint
	tr          *tracer
}

func newRunResult() *runResult {
	return &runResult{e2e: map[string]float64{}, layer: map[string]float64{}, meta: map[string]any{}}
}

// fail counts n failed operations and keeps their messages.
func (r *runResult) fail(n int, msgs ...string) {
	r.failed += n
	r.failures = append(r.failures, msgs...)
}

// latencies sets the miss and hit medians and records them with their p95
// and sample counts. The p95 stays in the record only: on a shared virtual
// machine it moved by more than any regression bound between runs of the
// same code.
func (r *runResult) latencies(miss, hit []float64) {
	stats := map[string]pctStat{}
	for _, c := range []struct {
		name string
		xs   []float64
	}{{"miss", miss}, {"hit", hit}} {
		p50, p95 := pct(c.xs, 0.50), pct(c.xs, 0.95)
		r.e2e[c.name+"_p50_ms"] = p50.Value
		stats[c.name+"_p50_ms"] = p50
		stats[c.name+"_p95_ms"] = p95
	}
	r.meta["percentiles"] = stats
}

// selfTimes sets the self.<layer>_ms metrics: each layer's summed self time
// divided by the number of units (sweeps or requests) of the run.
func (r *runResult) selfTimes(tr *tracer, units int) {
	self := selfTimes(tr.snapshot())
	for _, l := range []string{"experiment", "engine", "core", "codec", "service", "dist"} {
		r.layer["self."+l+"_ms"] = ratio(float64(self[l])/float64(time.Millisecond), float64(units))
	}
	all := map[string]float64{}
	for l, d := range self {
		all[l] = d.Seconds()
	}
	r.meta["self_time_s"] = all
}

// fingerprint is the exact simulated outcome of one unit of work: a change
// that claims only speed must leave it unchanged. Events and Spawns are 0
// where the run could not observe the kernel (untraced in-process runs,
// fleet units).
type fingerprint struct {
	Unit      int    `json:"unit"` // -1: the fleet's in-process reference
	Seed      int64  `json:"seed"`
	Rows      int    `json:"rows"`
	Events    int64  `json:"events,omitempty"`
	Spawns    int64  `json:"spawns,omitempty"`
	Joins     int64  `json:"joins"`
	OLTP      int64  `json:"oltp_txns"`
	TempIO    int64  `json:"temp_io_pages"`
	CSVSHA256 string `json:"csv_sha256"`
}

// diffFingerprints lists every difference between two fingerprint sets of
// the same workload and seed, comparing units present in both and kernel
// counts only where both observed them.
func diffFingerprints(a, b []fingerprint) []string {
	byUnit := map[int]fingerprint{}
	for _, f := range b {
		byUnit[f.Unit] = f
	}
	var out []string
	for _, fa := range a {
		fb, ok := byUnit[fa.Unit]
		if !ok {
			continue
		}
		add := func(field string, x, y any) {
			out = append(out, diffLine(fa.Unit, field, x, y))
		}
		if fa.Seed != fb.Seed {
			add("seed", fa.Seed, fb.Seed)
			continue
		}
		if fa.Rows != fb.Rows {
			add("rows", fa.Rows, fb.Rows)
		}
		if fa.Events != 0 && fb.Events != 0 && fa.Events != fb.Events {
			add("events", fa.Events, fb.Events)
		}
		if fa.Spawns != 0 && fb.Spawns != 0 && fa.Spawns != fb.Spawns {
			add("spawns", fa.Spawns, fb.Spawns)
		}
		if fa.Joins != fb.Joins {
			add("joins", fa.Joins, fb.Joins)
		}
		if fa.OLTP != fb.OLTP {
			add("oltp_txns", fa.OLTP, fb.OLTP)
		}
		if fa.TempIO != fb.TempIO {
			add("temp_io_pages", fa.TempIO, fb.TempIO)
		}
		if fa.CSVSHA256 != fb.CSVSHA256 {
			add("csv_sha256", fa.CSVSHA256, fb.CSVSHA256)
		}
	}
	sort.Strings(out)
	return out
}
