package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run (--trace 0). Every workload
// reports every one of them; the README states what each means per
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"max_rss_mb", "MB"},
	{"completed_rps", "1/s"},
	{"miss_p50_ms", "ms"},
	{"hit_p50_ms", "ms"},
}

// perLayer are the metrics of a traced run (--trace 1). A layer the
// workload does not reach reports 0.
var perLayer = []metricDef{
	{"sim.events_per_sim", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.handoffs_per_event", "ratio"},
	{"sim.inline_wakes_per_event", "ratio"},
	{"sim.spawns_per_sim", "count"},
	{"sim.spawn_reuse_ratio", "ratio"},
	{"sim.light_spawns_per_sim", "count"},
	{"sim.overflow_pushes_per_sim", "count"},

	{"engine.new_ms", "ms"},
	{"engine.run_ms", "ms"},
	{"engine.allocs_per_sim", "count"},
	{"engine.alloc_mb_per_sim", "MB"},
	{"engine.joins_per_sim", "count"},
	{"engine.oltp_txns_per_sim", "count"},
	{"engine.aborts_per_sim", "count"},
	{"engine.temp_io_pages_per_sim", "count"},

	{"core.decisions_per_sim", "count"},
	{"core.decide_ns", "ns"},
	{"core.decide_share", "ratio"},
	{"core.reports_per_sim", "count"},

	{"experiment.plan_ms", "ms"},
	{"experiment.complete_ms", "ms"},
	{"experiment.tail_idle_ratio", "ratio"},
	{"codec.csv_ms", "ms"},
	{"codec.csv_bytes_per_row", "B"},

	{"service.submit_ms", "ms"},
	{"service.collect_ms", "ms"},
	{"service.slot_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.rejected_ratio", "ratio"},

	{"dist.rtt_ms_per_range", "ms"},
	{"dist.worker_ms_per_range", "ms"},
	{"dist.wire_ms_per_job", "ms"},
	{"dist.req_bytes_per_job", "B"},
	{"dist.resp_bytes_per_job", "B"},
	{"dist.redispatches", "count"},
	{"dist.duplicates", "count"},
	{"dist.local_jobs", "count"},

	{"self.experiment_ms", "ms"},
	{"self.engine_ms", "ms"},
	{"self.core_ms", "ms"},
	{"self.codec_ms", "ms"},
	{"self.service_ms", "ms"},
	{"self.dist_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildMetrics turns measured values into the result's metrics object. It
// fails when a value is missing, unknown or not finite, so the printed set
// always equals the declared set.
func buildMetrics(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs and the
// number of samples beyond it. xs need not be sorted; it is not modified.
func percentile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := rank(len(s), q)
	return s[r-1], len(s) - r
}

// rank is the 1-based nearest-rank position of the q-quantile of n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// pctStat is a reported percentile with its sample count, for the run's
// metadata.
type pctStat struct {
	N       int     `json:"n"`
	Q       float64 `json:"q"`
	Value   float64 `json:"value"`
	Beyond  int     `json:"beyond"`
	TailMet bool    `json:"tail_rule_met"`
}

func pct(xs []float64, q float64) pctStat {
	v, beyond := percentile(xs, q)
	return pctStat{N: len(xs), Q: q, Value: v, Beyond: beyond, TailMet: beyond >= minTail}
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload did not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
