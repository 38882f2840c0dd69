// Command perfbench is the repository's benchmark. It runs one workload per
// process and prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones from a traced run. See README.md in this directory for the
// workloads, the metrics and how to run it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// resultsDir holds every run's full record, its spans and its fingerprint,
// relative to the checkout root the benchmark runs from.
const resultsDir = ".bench_build/perfbench/results"

var workloads = map[string]func(context.Context, runOpts) (*runResult, error){
	"sweep-join":  func(ctx context.Context, o runOpts) (*runResult, error) { return runBatch(ctx, sweepJoin, o) },
	"sweep-oltp":  func(ctx context.Context, o runOpts) (*runResult, error) { return runBatch(ctx, sweepOLTP, o) },
	"service-mix": runService,
	"fleet-sweep": func(ctx context.Context, o runOpts) (*runResult, error) { return runBatch(ctx, fleetSweep, o) },
}

func main() {
	started, steal0 := time.Now(), stealTicks()
	var (
		o       runOpts
		trace   int
		diffDir string
	)
	flag.StringVar(&o.workload, "workload", "", "workload: sweep-join, sweep-oltp, service-mix or fleet-sweep")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&diffDir, "fingerprint-diff", "", "compare the fingerprints recorded under "+resultsDir+
		" with those of another results directory, then exit")
	flag.Parse()
	if diffDir != "" {
		os.Exit(fingerprintDiff(resultsDir, diffDir))
	}
	run, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	o.trace = trace == 1
	o.workers = runtime.NumCPU()
	runtime.GOMAXPROCS(o.workers)

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	res, err := run(ctx, o)
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("run cut short: %w", ctx.Err())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if err := report(o, res, runMeta(o, started, steal0)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report assembles the metrics, stores the run's record and prints the
// summary and the result line.
func report(o runOpts, res *runResult, meta map[string]any) error {
	vals := res.layer
	defs := perLayer
	if !o.trace {
		vals = res.e2e
		defs = endToEnd
		vals["setup_s"] = median(res.setup)
		vals["max_rss_mb"] = maxRSSMB()
	} else {
		for _, d := range perLayer {
			if _, ok := vals[d.Name]; !ok {
				vals[d.Name] = 0 // a layer this workload does not reach
			}
		}
	}
	metrics, err := buildMetrics(defs, vals)
	if err != nil {
		return err
	}
	res.meta["setup_reps_s"] = res.setup
	for k, v := range meta {
		res.meta[k] = v
	}

	name := fmt.Sprintf("%s-seed%d-trace0", o.workload, o.seed)
	if o.trace {
		name = fmt.Sprintf("%s-seed%d-trace1", o.workload, o.seed)
	}
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	if changed := modelChanges(resultsDir, o.workload, o.seed, res.fingerprint); len(changed) > 0 {
		res.meta["model_changed"] = changed
		for _, c := range changed {
			fmt.Fprintf(os.Stderr, "perfbench: model changed: %s\n", c)
		}
	}
	if res.tr != nil {
		if err := res.tr.write(filepath.Join(resultsDir, name+".spans.json")); err != nil {
			return err
		}
	}
	record := map[string]any{
		"workload": o.workload, "seed": o.seed, "trace": o.trace,
		"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed,
		"failures": res.failures, "metrics": metrics, "meta": res.meta, "fingerprint": res.fingerprint,
	}
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(resultsDir, name+".json"), data, 0o644); err != nil {
		return err
	}

	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# perfbench %s seed=%d trace=%v (record: %s)\n", o.workload, o.seed, o.trace, filepath.Join(resultsDir, name+".json"))
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Printf("failed_ratio %g (%d of %d)\n", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	for i, f := range res.failures {
		if i == 10 {
			fmt.Printf("... %d more failures\n", len(res.failures)-10)
			break
		}
		fmt.Printf("FAIL %s\n", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fingerprintDiff compares the fingerprints of two results directories and
// reports "model changed" for every differing (workload, seed, unit, field).
func fingerprintDiff(a, b string) int {
	fa, errA := loadFingerprints(a)
	fb, errB := loadFingerprints(b)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	pairs, changed := 0, 0
	for key, x := range fa {
		y, ok := fb[key]
		if !ok {
			continue
		}
		pairs++
		for _, d := range diffFingerprints(x, y) {
			changed++
			fmt.Printf("model changed: %s %s\n", key, d)
		}
	}
	if changed > 0 {
		return 1
	}
	fmt.Printf("model unchanged: %d workload/seed pairs compared\n", pairs)
	return 0
}
