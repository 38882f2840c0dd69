package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dynlb"
)

// batchWorkload is a sweep run back to back, in process or through the
// in-process fleet, for the measured window.
type batchWorkload struct {
	name string
	// source is the sweep of one unit of work for a seed.
	source func(seed int64) dynlb.Source
	// keys lists the (series, x) of the rows a unit must deliver, in order.
	keys func() []rowKey
	// fleet runs the units through a dist.Coordinator and two workers, all
	// at the run's seed, checked against an in-process reference run.
	// Otherwise unit k runs in process at the k-th derived seed.
	fleet bool
	// golden, when set, holds the rows unit 0 must reproduce at seed 1.
	golden string
}

type rowKey struct {
	series string
	x      float64
}

var (
	joinStrategies = []string{"MIN-IO", "MIN-IO-SUOPT", "pmu-cpu+RANDOM", "pmu-cpu+LUM", "OPT-IO-CPU"}
	joinSizes      = []int{40, 20, 10}
	oltpStrategies = []string{"psu-opt+RANDOM", "psu-noIO+RANDOM", "psu-noIO+LUM", "pmu-cpu+LUM", "OPT-IO-CPU"}
	oltpSizes      = []int{20, 10}
)

// fleetReplicates is the number of independently seeded points of the
// fleet sweep.
const fleetReplicates = 40

// sweepJoin is the multi-user part of the paper's Fig. 6 (homogeneous
// joins, 0.25 QPS/PE, quick windows) at 10, 20 and 40 PEs; each of its rows
// is byte-identical to the row of the same strategy and size in
// testdata/fig6_quick.csv at seed 1.
var sweepJoin = batchWorkload{
	name: "sweep-join",
	source: func(seed int64) dynlb.Source {
		base := dynlb.DefaultConfig()
		base.JoinQPSPerPE = 0.25
		return sizeSweep("6", base, joinStrategies, joinSizes)
	},
	keys:   func() []rowKey { return sizeKeys(joinStrategies, joinSizes) },
	golden: "testdata/fig6_quick.csv",
}

// sweepOLTP is the paper's Fig. 9b (debit-credit OLTP at 100 TPS on the B
// nodes beside 0.075 QPS/PE joins, quick windows) at 10 and 20 PEs.
var sweepOLTP = batchWorkload{
	name: "sweep-oltp",
	source: func(seed int64) dynlb.Source {
		base := dynlb.DefaultConfig()
		base.DisksPerPE = 5
		base.JoinQPSPerPE = 0.075
		base.OLTP.Placement = dynlb.OLTPOnBNode
		base.OLTP.TPSPerNode = 100
		return sizeSweep("9b", base, oltpStrategies, oltpSizes)
	},
	keys: func() []rowKey { return sizeKeys(oltpStrategies, oltpSizes) },
}

// fleetSweep is the memory-bound Fig. 1c configuration (40 PEs, 5-page
// buffers, one disk per PE, 0.05 QPS/PE, quick windows) under OPT-IO-CPU,
// replicated over independently seeded points: short simulations, so the
// per-job wire and coordination costs show.
var fleetSweep = batchWorkload{
	name: "fleet-sweep",
	source: func(seed int64) dynlb.Source {
		base := dynlb.DefaultConfig()
		base.NPE = 40
		base.BufferPages = 5
		base.DisksPerPE = 1
		base.JoinQPSPerPE = 0.05
		seeds := dynlb.ReplicateSeeds(seed, fleetReplicates)
		reps := make([]int, fleetReplicates)
		for i := range reps {
			reps[i] = i
		}
		return dynlb.Sweep{
			Name:       "1c-fleet",
			Base:       base,
			Strategies: []dynlb.Strategy{dynlb.MustStrategy("OPT-IO-CPU")},
			Axes: []dynlb.Axis{
				dynlb.IntAxis("replicate", func(c *dynlb.Config, r int) { c.Seed = seeds[r] }, reps...),
			},
		}
	},
	keys: func() []rowKey {
		keys := make([]rowKey, fleetReplicates)
		for i := range keys {
			keys[i] = rowKey{"OPT-IO-CPU", float64(i)}
		}
		return keys
	},
	fleet: true,
}

func sizeSweep(name string, base dynlb.Config, strategies []string, sizes []int) dynlb.Sweep {
	sts := make([]dynlb.Strategy, len(strategies))
	for i, n := range strategies {
		sts[i] = dynlb.MustStrategy(n)
	}
	return dynlb.Sweep{
		Name:       name,
		Base:       base,
		Strategies: sts,
		Axes:       []dynlb.Axis{dynlb.IntAxis("#PE", func(c *dynlb.Config, n int) { c.NPE = n }, sizes...)},
	}
}

func sizeKeys(strategies []string, sizes []int) []rowKey {
	var keys []rowKey
	for _, n := range sizes {
		for _, s := range strategies {
			keys = append(keys, rowKey{s, float64(n)})
		}
	}
	return keys
}

// hitExports is how often each finished unit's rows are served again as
// CSV; the hit percentiles are taken over these exports.
const hitExports = 80

// minUnits is the least number of units a run measures, however long they
// take.
const minUnits = 3

// unitResult is one measured unit of a batch run.
type unitResult struct {
	k      int
	seed   int64
	rows   []dynlb.Row
	csv    []byte
	start  time.Time
	wall   time.Duration
	rowAt  []time.Duration // per row: unit start to the row's delivery
	hits   []timed         // per CSV re-export of the finished rows
	csvNS  int64           // summed export time
	events int64           // dispatched events, traced in-process units only
	spawns int64
	report fleetReport
}

// timed is one timed operation.
type timed struct {
	start time.Time
	d     time.Duration
}

type fleetReport struct{ redispatches, duplicates, localJobs int }

func (w batchWorkload) options(seed int64, workers int) []dynlb.Option {
	return []dynlb.Option{dynlb.WithScale(dynlb.ScaleQuick), dynlb.WithSeed(seed), dynlb.WithWorkers(workers)}
}

// runBatch measures a batch workload: repeated set-up, then units of work
// until the window closes, then the output checks.
func runBatch(ctx context.Context, w batchWorkload, o runOpts) (*runResult, error) {
	res := newRunResult()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	seeds := dynlb.ReplicateSeeds(o.seed, 256)
	unitSeed := func(k int) int64 {
		if w.fleet {
			return o.seed
		}
		return seeds[k%len(seeds)]
	}

	// Set-up: compile the first unit's plan, load the golden rows and, for
	// the fleet, start the workers and the coordinator. Repeated so the
	// reported set-up time is a median.
	var (
		fl     *fleet
		golden map[string]string
		header string
	)
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if fl != nil {
			fl.close()
			fl = nil
		}
		if _, err := dynlb.NewExperiment(w.source(unitSeed(0)), w.options(unitSeed(0), o.workers)...).Plan(); err != nil {
			return nil, err
		}
		if w.golden != "" {
			var err error
			if golden, header, err = loadGolden(w.golden); err != nil {
				return nil, err
			}
		}
		if w.fleet {
			var err error
			if fl, err = startFleet(ctx, 2, tr); err != nil {
				return nil, err
			}
		}
		res.setup = append(res.setup, time.Since(t).Seconds())
	}
	if fl != nil {
		defer fl.close()
	}

	st := &simStats{}
	var refCSV []byte
	if w.fleet {
		// The reference: the same plan run in process. Traced runs take the
		// simulation, engine and strategy metrics from it, because the
		// fleet's simulations run behind the wire.
		t := time.Now()
		rows, err := w.runLocal(ctx, tr, st, unitSeed(0), o.workers, "reference")
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		if refCSV, err = encodeCSV(rows); err != nil {
			return nil, err
		}
		res.meta["reference_s"] = time.Since(t).Seconds()
		res.fingerprint = append(res.fingerprint, rowsFingerprint(-1, unitSeed(0), rows, refCSV, st.events, st.spawns))
	}

	// The traced run's overhead baseline: unit 0 untraced.
	var baseline *unitResult
	if o.trace {
		var bf *fleet
		if w.fleet {
			var err error
			if bf, err = startFleet(ctx, 2, nil); err != nil {
				return nil, err
			}
		}
		u, err := w.runUnit(ctx, nil, st, bf, 0, unitSeed(0), o.workers)
		if bf != nil {
			bf.close()
		}
		if err != nil {
			return nil, err
		}
		baseline = u
	}

	sampler := startStealSampler(100*time.Millisecond, o.workers)
	start := time.Now()
	var units []*unitResult
	for k := 0; ; k++ {
		u, err := w.runUnit(ctx, tr, st, fl, k, unitSeed(k), o.workers)
		if err != nil {
			sampler.stopSampling()
			return nil, err
		}
		units = append(units, u)
		bad := w.check(u, golden, header, o.seed, refCSV)
		if baseline != nil && k == 0 && !bytes.Equal(u.csv, baseline.csv) {
			bad = append(bad, "traced unit 0 rows differ from the untraced rows")
		}
		res.attempted += len(u.rows)
		res.fail(len(bad), bad...)
		if (time.Since(start).Seconds() >= o.seconds && len(units) >= minUnits) || ctx.Err() != nil {
			break
		}
	}
	sampler.stopSampling()

	if !w.fleet {
		if msg := w.spotCheck(units, o.seed); msg != "" {
			res.fail(1, msg)
		}
	}

	// End-to-end metrics, with the CPU time stolen from the machine taken
	// out of every timing.
	var walls, rawWalls, rowMS, hitMS, steal []float64
	var wallSum float64
	jobs := 0
	for _, u := range units {
		wall := sampler.adjust(u.start, u.wall).Seconds()
		walls = append(walls, wall)
		rawWalls = append(rawWalls, u.wall.Seconds())
		steal = append(steal, sampler.share(u.start, u.wall))
		wallSum += wall
		for _, at := range u.rowAt {
			rowMS = append(rowMS, float64(sampler.adjust(u.start, at))/1e6)
		}
		for _, h := range u.hits {
			hitMS = append(hitMS, float64(sampler.adjust(h.start, h.d))/1e6)
		}
		jobs += len(u.rows)
		res.fingerprint = append(res.fingerprint, u.fingerprint())
	}
	res.e2e["wall_s"] = median(walls)
	res.e2e["completed_rps"] = float64(jobs) / wallSum
	res.latencies(rowMS, hitMS)
	res.meta["units"] = len(units)
	res.meta["unit_walls_s"] = walls
	res.meta["unit_raw_walls_s"] = rawWalls
	res.meta["unit_steal_share"] = steal

	if !o.trace {
		return res, nil
	}

	// Per-layer metrics.
	m := res.layer
	st.layerMetrics(m)
	var csvNS int64
	var csvBytes, csvRows int
	var rd, dup, local int
	var busyNS int64
	for _, u := range units {
		csvNS += u.csvNS
		csvBytes += len(u.csv)
		csvRows += len(u.rows)
		rd += u.report.redispatches
		dup += u.report.duplicates
		local += u.report.localJobs
	}
	if !w.fleet {
		busyNS = st.jobNS
	}
	m["codec.csv_ms"] = ratio(float64(csvNS), float64(len(units)*hitExports)) / 1e6
	m["codec.csv_bytes_per_row"] = ratio(float64(csvBytes), float64(csvRows))
	if w.fleet {
		ranges, rttNS, reqB, respB := fl.transport.totals()
		handlerNS := fl.handlerNS()
		busyNS = handlerNS
		m["dist.rtt_ms_per_range"] = ratio(float64(rttNS), float64(ranges)) / 1e6
		m["dist.worker_ms_per_range"] = ratio(float64(handlerNS), float64(ranges)) / 1e6
		m["dist.wire_ms_per_job"] = ratio(float64(rttNS-handlerNS), float64(jobs)) / 1e6
		m["dist.req_bytes_per_job"] = ratio(float64(reqB), float64(jobs))
		m["dist.resp_bytes_per_job"] = ratio(float64(respB), float64(jobs))
		m["dist.redispatches"] = float64(rd)
		m["dist.duplicates"] = float64(dup)
		m["dist.local_jobs"] = float64(local)
		res.meta["dist_ranges"] = ranges
	}
	m["experiment.tail_idle_ratio"] = 1 - ratio(float64(busyNS), float64(o.workers)*wallSum*1e9)
	// In-process units move to a new seed each time, so only unit 0 matches
	// the baseline's work; fleet units all repeat it.
	traced := units[0].wall.Seconds()
	if w.fleet {
		traced = median(walls)
	}
	m["trace.overhead_ratio"] = ratio(traced, baseline.wall.Seconds()) - 1
	res.meta["overhead_baseline_wall_s"] = baseline.wall.Seconds()
	res.selfTimes(tr, len(units))
	res.tr = tr
	return res, nil
}

// runLocal runs one unit in process and returns its rows: through
// Experiment.Run untraced, through the traced plan runner otherwise.
func (w batchWorkload) runLocal(ctx context.Context, tr *tracer, st *simStats, seed int64, workers int, id string) ([]dynlb.Row, error) {
	exp := dynlb.NewExperiment(w.source(seed), w.options(seed, workers)...)
	if tr == nil {
		return exp.Run(ctx)
	}
	root := tr.begin("bench.sweep", id, -1)
	defer tr.end(root)
	p, err := compilePlan(tr, exp, id, root, st)
	if err != nil {
		return nil, err
	}
	var rows []dynlb.Row
	err = runPlanTraced(tr, p, workers, id, root, st, func(rs []dynlb.Row) { rows = append(rows, rs...) })
	return rows, err
}

// runUnit runs one unit of work and serves its rows again as CSV.
func (w batchWorkload) runUnit(ctx context.Context, tr *tracer, st *simStats, fl *fleet, k int, seed int64, workers int) (*unitResult, error) {
	u := &unitResult{k: k, seed: seed}
	id := "sweep-" + strconv.Itoa(k)
	root := tr.begin("bench.sweep", id, -1)
	ev0, sp0 := st.events, st.spawns
	u.start = time.Now()
	deliver := func(rs []dynlb.Row) {
		at := time.Since(u.start)
		for range rs {
			u.rowAt = append(u.rowAt, at)
		}
		u.rows = append(u.rows, rs...)
		u.wall = at
	}
	exp := func(opts ...dynlb.Option) *dynlb.Experiment {
		return dynlb.NewExperiment(w.source(seed), append(w.options(seed, workers), opts...)...)
	}
	var err error
	switch {
	case fl != nil:
		if fl.transport != nil {
			fl.transport.setSweep(root, id)
		}
		_, err = exp(dynlb.WithDistributed(fl.coord), dynlb.WithProgress(func(r dynlb.Row) { deliver([]dynlb.Row{r}) })).Run(ctx)
		if rep := fl.coord.Report(); rep != nil {
			u.report = fleetReport{rep.Redispatches, rep.Duplicates, rep.LocalJobs}
		}
	case tr == nil:
		_, err = exp(dynlb.WithProgress(func(r dynlb.Row) { deliver([]dynlb.Row{r}) })).Run(ctx)
	default:
		var p *dynlb.Plan
		if p, err = compilePlan(tr, exp(), id, root, st); err == nil {
			err = runPlanTraced(tr, p, workers, id, root, st, deliver)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s unit %d (seed %d): %w", w.name, k, seed, err)
	}
	u.events, u.spawns = st.events-ev0, st.spawns-sp0
	tr.end(root)

	// Serve the finished rows again, as a cached result is served. The
	// collection first clears the sweep's garbage, so the exports are not
	// charged for it.
	runtime.GC()
	var buf bytes.Buffer
	for i := 0; i < hitExports; i++ {
		buf.Reset()
		sp := tr.begin("codec.csv", id, root)
		t := time.Now()
		if err := dynlb.WriteRowsCSV(&buf, u.rows); err != nil {
			return nil, err
		}
		d := time.Since(t)
		tr.end(sp)
		u.csvNS += int64(d)
		u.hits = append(u.hits, timed{t, d})
		if i == 0 {
			u.csv = append([]byte(nil), buf.Bytes()...)
		} else if !bytes.Equal(buf.Bytes(), u.csv) {
			return nil, fmt.Errorf("%s unit %d: CSV export %d differs from the first", w.name, k, i)
		}
	}
	return u, nil
}

// check validates every row of a unit and returns one message per bad row.
func (w batchWorkload) check(u *unitResult, golden map[string]string, header string, seed int64, ref []byte) []string {
	var bad []string
	keys := w.keys()
	if len(u.rows) != len(keys) {
		return append(bad, fmt.Sprintf("unit %d: %d rows, want %d", u.k, len(u.rows), len(keys)))
	}
	for i, r := range u.rows {
		if msg := checkRow(r, keys[i]); msg != "" {
			bad = append(bad, fmt.Sprintf("unit %d row %d: %s", u.k, i, msg))
		}
	}
	if ref != nil && !bytes.Equal(u.csv, ref) {
		bad = append(bad, fmt.Sprintf("unit %d: fleet rows differ from the in-process reference", u.k))
	}
	if golden != nil && seed == 1 && u.k == 0 {
		bad = append(bad, checkGolden(u.csv, golden, header)...)
	}
	return bad
}

// checkRow applies the invariants every simulated sweep row satisfies.
func checkRow(r dynlb.Row, want rowKey) string {
	res := r.Res
	switch {
	case r.Series != want.series || r.X != want.x:
		return fmt.Sprintf("row (%s, %v), want (%s, %v)", r.Series, r.X, want.series, want.x)
	case res.Strategy != want.series:
		return fmt.Sprintf("results of strategy %q", res.Strategy)
	case res.JoinsDone < 0 || res.OLTPDone < 0 || res.TempIOPages < 0:
		return "negative count"
	case res.JoinsDone > 0 && !(res.JoinRT.MeanMS > 0):
		return fmt.Sprintf("join response time %v with %d joins", res.JoinRT.MeanMS, res.JoinsDone)
	}
	for _, u := range []float64{res.CPUUtil, res.DiskUtil, res.MemUtil, res.MaxCPU} {
		if math.IsNaN(u) || u < 0 || u > 1+1e-9 {
			return fmt.Sprintf("utilization %v outside [0, 1]", u)
		}
	}
	return ""
}

// loadGolden reads a golden CSV into its header and a map from "series,x"
// to the full line.
func loadGolden(path string) (map[string]string, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, "", fmt.Errorf("%s: empty", path)
	}
	lines := map[string]string{}
	for _, rec := range recs[1:] {
		lines[rec[1]+","+rec[2]] = strings.Join(rec, ",")
	}
	return lines, strings.Join(recs[0], ","), nil
}

// checkGolden compares every row of a CSV export with the golden line of the
// same series and x.
func checkGolden(data []byte, golden map[string]string, header string) []string {
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil || len(recs) == 0 {
		return []string{fmt.Sprintf("golden check: unreadable CSV: %v", err)}
	}
	var bad []string
	if got := strings.Join(recs[0], ","); got != header {
		bad = append(bad, fmt.Sprintf("golden check: header %q, want %q", got, header))
	}
	for _, rec := range recs[1:] {
		key := rec[1] + "," + rec[2]
		if want, ok := golden[key]; !ok || want != strings.Join(rec, ",") {
			bad = append(bad, fmt.Sprintf("golden check: row %s differs from the golden", key))
		}
	}
	return bad
}

// spotCheck re-simulates one seed-chosen job of one unit with dynlb.Run and
// compares its results with the row the sweep delivered for it.
func (w batchWorkload) spotCheck(units []*unitResult, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	u := units[rng.Intn(len(units))]
	p, err := dynlb.NewExperiment(w.source(u.seed), w.options(u.seed, 1)...).Plan()
	if err != nil {
		return err.Error()
	}
	j := rng.Intn(p.NumJobs())
	cfg, st := p.Job(j)
	r, err := dynlb.Run(cfg, st)
	if err != nil {
		return err.Error()
	}
	if got, want := fmt.Sprintf("%+v", u.rows[j].Res), fmt.Sprintf("%+v", r); got != want {
		return fmt.Sprintf("unit %d job %d: delivered results differ from a direct dynlb.Run", u.k, j)
	}
	return ""
}

func encodeCSV(rows []dynlb.Row) ([]byte, error) {
	var buf bytes.Buffer
	err := dynlb.WriteRowsCSV(&buf, rows)
	return buf.Bytes(), err
}

// fingerprint records the exact simulated counts of a unit.
func (u *unitResult) fingerprint() fingerprint {
	return rowsFingerprint(u.k, u.seed, u.rows, u.csv, u.events, u.spawns)
}

// rowsFingerprint records the exact simulated counts behind a row set.
// events and spawns are 0 where the run could not observe the kernel.
func rowsFingerprint(unit int, seed int64, rows []dynlb.Row, csv []byte, events, spawns int64) fingerprint {
	f := fingerprint{Unit: unit, Seed: seed, Rows: len(rows), Events: events, Spawns: spawns}
	for _, r := range rows {
		f.Joins += r.Res.JoinsDone
		f.OLTP += r.Res.OLTPDone
		f.TempIO += r.Res.TempIOPages
	}
	sum := sha256.Sum256(csv)
	f.CSVSHA256 = hex.EncodeToString(sum[:])
	return f
}
