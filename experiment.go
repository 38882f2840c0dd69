package dynlb

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"dynlb/internal/stats"
)

// Source is a point source for an Experiment: a set of sweep points, each a
// full simulation configuration with its row coordinates. The built-in
// sources are Figure (one of the paper's evaluation figures) and Sweep (a
// user-defined sweep over arbitrary Config axes). The interface is sealed:
// its methods are unexported so the planning contract can evolve without
// breaking third-party code.
type Source interface {
	// label is the Row.Figure value of the source's rows.
	label() string
	// baseSeed is the seed replicate streams derive from when WithSeed is
	// absent.
	baseSeed() int64
	// plan resolves the source into simulation jobs and row specs. scaleSet
	// reports whether WithScale was given (a Sweep keeps its Base windows
	// otherwise).
	plan(scale Scale, scaleSet bool, seed int64) (*pointPlan, error)
	// comparePlan resolves the source into its strategy-free workload
	// points for a paired WithCompare experiment.
	comparePlan(scale Scale, scaleSet bool, seed int64) ([]comparePoint, error)
}

// pointPlan is the executable form of a point source: one simulation job
// per logical sweep point (cfg.Seed holds the base seed; replication
// re-seeds the expansion) plus the row specs mapping point outcomes to
// output rows. Rows are emitted in slice order.
type pointPlan struct {
	jobs []runJob
	rows []rowSpec
}

// rowSpec is one output row: the indices of the logical points it consumes
// and the pure function shaping their outcomes into the Row. A row with no
// deps (e.g. Fig. 1a's analytic curve) is emitted immediately.
//
// Invariant every planner must keep: deps lists reference points first and
// the row's OWN point last — WithRuns attaches the last dep's raw Results
// to Row.Runs (plan8's improvement rows are the only multi-dep case today:
// {baseline, own}).
type rowSpec struct {
	deps  []int
	build func(outs []runOut) (Row, error)
}

// Experiment is the single execution path of the package: a point source
// (Figure or Sweep) plus options selecting scale, seeding, replication,
// paired comparison, parallelism and progress streaming. Build one with
// NewExperiment and execute it with Run; the zero value is not usable.
//
// Replication (WithReps, WithSeeds) and paired comparison (WithCompare) are
// orthogonal stages over the same point plan: every logical point expands
// into its replicate (and strategy-pair) simulations, all jobs share one
// worker pool, and each point's runs are aggregated back into one row. Rows
// are a pure function of the source and options — bit-identical at any
// worker count — and arrive in deterministic order.
type Experiment struct {
	src Source
	o   expOptions
}

// expOptions is the resolved option set of an Experiment.
type expOptions struct {
	scale      Scale
	scaleSet   bool
	seed       int64
	seedSet    bool
	workers    int
	reps       int
	repsSet    bool
	seeds      []int64
	conf       float64
	keepRuns   bool
	compareSet bool
	cmpA       Strategy
	cmpB       Strategy
	progress   func(Row)
	profile    LoadProfile
	profileSet bool
	window     Duration
	windowSet  bool
	faults     FaultPlan
	faultsSet  bool
	dist       Executor
}

// Option configures an Experiment.
type Option func(*Experiment)

// WithScale selects the simulation windows (warm-up, measurement) of every
// point. Default: ScaleNormal for Figure sources; a Sweep keeps the windows
// of its Base config unless this option is given.
func WithScale(s Scale) Option {
	return func(e *Experiment) { e.o.scale = s; e.o.scaleSet = true }
}

// WithSeed sets the base random seed of the experiment: the seed of every
// unreplicated point and the root of the replicate seed stream. Default: 1
// for Figure sources, Sweep.Base.Seed for sweeps.
func WithSeed(seed int64) Option {
	return func(e *Experiment) { e.o.seed = seed; e.o.seedSet = true }
}

// WithWorkers caps the number of concurrent simulations (<= 0 means
// runtime.NumCPU, the default). Every job runs an independent kernel and
// RNG, so the worker count never changes the rows.
func WithWorkers(n int) Option {
	return func(e *Experiment) { e.o.workers = n }
}

// WithReps replicates every sweep point across n deterministic seeds
// (ReplicateSeeds of the base seed: replicate 0 is the base itself). At
// n >= 2 each row reports across-replicate means with Student-t confidence
// half-widths in Row.Rep; n <= 1 runs each point once with Row.Rep nil.
// Mutually exclusive with WithSeeds.
func WithReps(n int) Option {
	return func(e *Experiment) { e.o.reps = n; e.o.repsSet = true }
}

// WithSeeds replicates every sweep point across an explicit seed list
// instead of the derived ReplicateSeeds stream. Unlike WithReps(1), a
// single explicit seed still aggregates (Row.Rep set with Reps == 1), so
// callers get a uniform replicated shape. Mutually exclusive with WithReps.
func WithSeeds(seeds ...int64) Option {
	// The copy stays non-nil even for zero seeds, so an (invalid) empty
	// explicit list is diagnosed rather than silently ignored.
	return func(e *Experiment) { e.o.seeds = append(make([]int64, 0, len(seeds)), seeds...) }
}

// WithRuns attaches each row's raw per-replicate Results to Row.Runs, in
// replicate-seed order, so per-seed data (scatter plots, custom
// aggregation) survives the row aggregation. In a compared sweep the pair
// interleaves {A, B} per seed; a row whose value derives from several
// sweep points (Fig. 8's improvement rows) carries its own point's runs,
// not the baseline's. Off by default to keep rows small.
func WithRuns() Option {
	return func(e *Experiment) { e.o.keepRuns = true }
}

// WithConfidence sets the confidence level in (0, 1) of replication and
// comparison intervals. Default DefaultConfidence (0.95).
func WithConfidence(conf float64) Option {
	return func(e *Experiment) { e.o.conf = conf }
}

// WithCompare runs the experiment as a paired head-to-head comparison of a
// baseline strategy a against a challenger b: the source's workload points
// are stripped of their own strategy dimension, and every (point, replicate
// seed) simulates once under each strategy on the identical seed (common
// random numbers). Rows carry b's results plus the paired per-metric deltas
// and relative improvements — with paired-t confidence half-widths — in
// Row.Cmp.
func WithCompare(a, b Strategy) Option {
	return func(e *Experiment) { e.o.compareSet = true; e.o.cmpA, e.o.cmpB = a, b }
}

// WithProfile applies a non-stationary load profile to every simulated
// point of the experiment, overriding the points' own Config.Profile. It
// composes with every other option — the profile modulates each point's
// arrival processes without touching its seed, so compared sweeps still
// pair on common random numbers and a constant profile reproduces the
// steady-state rows bit for bit. For sweeping *over* profiles, use a
// ProfileAxis instead.
func WithProfile(p LoadProfile) Option {
	return func(e *Experiment) { e.o.profile = p; e.o.profileSet = true }
}

// WithFaults injects a fault plan into every simulated point of the
// experiment, overriding the points' own Config.Faults. Faults are
// scheduled simulation events, so they compose with every other option:
// compared sweeps still pair on common random numbers, each point replays
// bit-identically per seed, and the empty plan reproduces the fault-free
// rows bit for bit. For sweeping *over* fault plans, use a FaultAxis.
func WithFaults(fp FaultPlan) Option {
	return func(e *Experiment) { e.o.faults = fp; e.o.faultsSet = true }
}

// WithMetricsWindow enables windowed transient metrics on every simulated
// point: the measurement interval is sliced into width-wide windows, each
// row's Results carries the per-window series plus peak-window response
// time and recovery time, and WriteRowsCSV/WriteRowsJSON add the windowed
// columns. Steady-state rows (width 0, the default) are unchanged.
func WithMetricsWindow(width Duration) Option {
	return func(e *Experiment) { e.o.window = width; e.o.windowSet = true }
}

// Executor is an external execution backend for a compiled Plan; the
// distributed coordinator in internal/dist is the canonical implementation.
// Run calls ExecutePlan after it has emitted the plan's dependency-free
// Start rows; the executor must then run every physical job — locally,
// remotely, in any order and at any parallelism — and fold the completions
// into rows, forwarding each batch to deliver in the order Complete
// returned it. Plan.Execute does the folding for any per-job runner.
// Because every job is a pure function of its (Config, Strategy) pair, any
// executor that simulates the jobs faithfully yields rows bit-identical to
// the in-process pool.
type Executor interface {
	ExecutePlan(ctx context.Context, p *Plan, deliver func([]Row)) error
}

// WithDistributed runs the experiment's physical jobs through an external
// executor — typically a dist.Coordinator dispatching jobs to remote
// workers — instead of the in-process worker pool. Row identity is
// unaffected: rows arrive in the same deterministic order with the same
// bytes at any worker count or placement. The executor sets its own
// parallelism, so WithWorkers has no effect; WithProgress streams rows
// exactly as in local execution.
func WithDistributed(x Executor) Option {
	return func(e *Experiment) { e.o.dist = x }
}

// WithProgress streams every completed row to fn. Rows arrive in their
// final deterministic order (a row is delivered as soon as it and all rows
// before it are complete), from the goroutine Run was called on, so fn
// needs no locking. On success the returned slice repeats the same rows;
// when Run fails (cancellation, job error) it returns nil and the stream
// holds the deterministic prefix completed up to that point.
func WithProgress(fn func(Row)) Option {
	return func(e *Experiment) { e.o.progress = fn }
}

// NewExperiment builds an experiment over a point source. Invalid
// combinations (unknown figure, empty sweep, WithReps together with
// WithSeeds, confidence outside (0, 1)) are reported by Run.
func NewExperiment(src Source, opts ...Option) *Experiment {
	e := &Experiment{src: src}
	e.o.scale = ScaleNormal
	e.o.reps = 1
	e.o.conf = DefaultConfidence
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// slot is one logical sweep point of the expanded schedule: a contiguous
// range of physical jobs plus the aggregation folding their Results into
// the point's runOut (identity for an unreplicated point, AggregateResults
// for a replicated one, the paired aggregation for a compared one).
type slot struct {
	first, n int
	finish   func(results []Results) (runOut, error)
}

// Run executes the experiment and returns its rows in deterministic order.
// Cancelling ctx stops the sweep promptly: no new simulations start and Run
// returns ctx.Err without waiting for in-flight points (each simulated
// point is indivisible and finishes in the background).
func (e *Experiment) Run(ctx context.Context) ([]Row, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := e.Plan()
	if err != nil {
		return nil, err
	}
	// A cancelled context delivers nothing: without this gate the Start
	// below would stream dependency-free rows (e.g. Fig. 1a's analytic
	// curve) that the nil return then disowns.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]Row, 0, p.NumRows())
	// deliver appends a completed batch and streams it to WithProgress, so
	// the progress stream is a deterministic prefix of the final row slice.
	deliver := func(rows []Row) {
		for _, r := range rows {
			out = append(out, r)
			if e.o.progress != nil {
				e.o.progress(r)
			}
		}
	}
	first, err := p.Start()
	if err != nil {
		return nil, err
	}
	deliver(first)
	if e.o.dist != nil {
		err = e.o.dist.ExecutePlan(ctx, p, deliver)
	} else {
		err = p.Execute(ctx, e.o.workers, func(_ context.Context, i int) error { return p.RunJob(i) }, deliver)
	}
	if err != nil {
		return nil, err
	}
	if !p.Done() {
		return nil, fmt.Errorf("dynlb: executor returned without completing every row (%d of %d emitted)", len(out), p.NumRows())
	}
	return out, nil
}

// Plan validates the experiment and compiles it into its executable
// schedule: the physical simulation jobs (every sweep point expanded
// through the replication/comparison stages) plus the slot and row
// bookkeeping folding job outcomes back into Rows. Run drives a Plan
// through Plan.Execute, which runs one job per call of a pluggable runner
// (Plan.RunJob in process, a remote fleet's per-job runner behind
// WithDistributed):
//
//	p, err := exp.Plan()
//	rows, err := p.Start() // rows with no simulation deps
//	err = p.Execute(ctx, workers, run, deliver)
//
// Schedulers with their own claim policy (internal/service multiplexes
// many plans over one shared pool, round-robin) call the slot hooks
// directly instead. Rows are a pure function of the experiment: however
// jobs are scheduled, Complete emits the same rows in the same
// deterministic order.
func (e *Experiment) Plan() (*Plan, error) {
	if e.src == nil {
		return nil, fmt.Errorf("dynlb: Experiment needs a point source (Figure or Sweep)")
	}
	if err := checkConfidence(e.o.conf); err != nil {
		return nil, err
	}
	if e.o.seeds != nil && e.o.repsSet {
		return nil, fmt.Errorf("dynlb: WithSeeds and WithReps are mutually exclusive")
	}
	seed := e.src.baseSeed()
	if e.o.seedSet {
		seed = e.o.seed
	}
	jobs, slots, rows, err := e.expand(seed)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		exp:      e,
		jobs:     jobs,
		slots:    slots,
		rows:     rows,
		jobSlot:  make([]int, len(jobs)),
		pending:  make([]int, len(slots)),
		results:  make([]Results, len(jobs)),
		outs:     make([]runOut, len(slots)),
		slotDone: make([]bool, len(slots)),
	}
	for s, sl := range slots {
		p.pending[s] = sl.n
		for i := sl.first; i < sl.first+sl.n; i++ {
			p.jobSlot[i] = s
		}
	}
	return p, nil
}

// Plan is the compiled schedule of an Experiment: NumJobs physical
// simulations whose completions fold into NumRows output rows. Build one
// with (*Experiment).Plan.
//
// # The slot-hook contract
//
// A plan groups its physical jobs into logical slots — one per sweep point
// after replication/comparison expansion — each owning a contiguous range
// of jobs; SlotOf(i) names the slot of job i. External executors drive a
// plan through five hooks:
//
//   - Job(i) exposes job i's exact simulation inputs: the fully resolved
//     Config (per-slot splitmix64 replicate seed already applied) and the
//     Strategy. A job is a pure function of this pair, so any executor —
//     the in-process pool, internal/service's shared scheduler, or a
//     remote worker reconstructing the pair from its wire form — obtains
//     bit-identical Results.
//   - RunJob(i) simulates job i here and records its Results; concurrent
//     calls for distinct i are safe. SetJobResult(i, r) records Results
//     computed elsewhere instead.
//   - Start() emits the rows with no simulation dependencies; call it once
//     before the first Complete.
//   - Complete(i) folds job i's recorded Results into its slot and returns
//     the rows that became emittable — always a deterministic prefix
//     extension, however jobs were scheduled or interleaved.
//   - Done() reports whether every row has been emitted.
//
// RunJob is safe to call concurrently for distinct job indices, and
// SetJobResult for distinct indices not under a concurrent Complete of the
// same slot; Start and Complete mutate the emission state and must be
// serialized by the caller (one collector goroutine, or one mutex).
// Execute is that collector for any per-job runner. A Plan is single-use:
// drive it to completion once and build a fresh one to re-run the
// experiment.
type Plan struct {
	exp      *Experiment
	jobs     []runJob
	slots    []slot
	rows     []rowSpec
	jobSlot  []int
	pending  []int
	results  []Results
	outs     []runOut
	slotDone []bool
	nextRow  int
}

// NumJobs is the number of physical simulation jobs of the plan (sweep
// points after replication and comparison expansion).
func (p *Plan) NumJobs() int { return len(p.jobs) }

// NumRows is the number of output rows the fully executed plan emits.
func (p *Plan) NumRows() int { return len(p.rows) }

// RunJob simulates physical job i with Run and records its results in the
// plan; a panic inside the simulation is returned as Run returns it. Each
// job runs an independent kernel and RNG, so distinct indices may run
// concurrently on any number of workers without changing any row.
func (p *Plan) RunJob(i int) error {
	res, err := Run(p.jobs[i].cfg, p.jobs[i].st)
	if err != nil {
		return err
	}
	p.results[i] = res
	return nil
}

// Start emits the rows with no simulation dependencies (e.g. Fig. 1a's
// analytic curve). Call it once, before the first Complete.
func (p *Plan) Start() ([]Row, error) { return p.emit() }

// Complete records that RunJob(i) finished, folds any slot it completed
// into its point outcome, and returns the rows that became emittable — in
// their final deterministic order, so concatenating every batch reproduces
// the full row slice however jobs were scheduled. Complete must not be
// called concurrently (serialize it with Start and with itself).
func (p *Plan) Complete(i int) ([]Row, error) {
	s := p.jobSlot[i]
	if p.pending[s]--; p.pending[s] > 0 {
		return nil, nil
	}
	sl := p.slots[s]
	runs := p.results[sl.first : sl.first+sl.n]
	o, err := sl.finish(runs)
	if err != nil {
		return nil, err
	}
	if p.exp.o.keepRuns {
		o.runs = append([]Results(nil), runs...)
	}
	p.outs[s] = o
	p.slotDone[s] = true
	return p.emit()
}

// Done reports whether every row has been emitted.
func (p *Plan) Done() bool { return p.nextRow == len(p.rows) }

// Execute drives the plan to completion. workers goroutines (<= 0 means
// runtime.NumCPU) claim the jobs in index order and run each through run,
// which must leave the job's Results in the plan as RunJob does; the
// calling goroutine folds every completion through Complete and hands each
// batch of newly emittable rows to deliver, in order. Call Start first.
//
// Execute returns nil once every job has completed, or the first error
// run or Complete returns, or ctx's error. On an early return the context
// passed to run is cancelled and no further job is claimed; jobs already
// running finish in the background and their results are discarded.
func (p *Plan) Execute(ctx context.Context, workers int, run func(ctx context.Context, i int) error, deliver func([]Row)) error {
	n := p.NumJobs()
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, n)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		done   = make(chan int, n)         // one send per job, so workers never block
		failed = make(chan error, workers) // at most one send per worker
		next   atomic.Int64
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(next.Add(1))
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := run(ctx, i); err != nil {
					failed <- err
					return
				}
				done <- i
			}
		}()
	}
	for completed := 0; completed < n; completed++ {
		// Re-check cancellation first: when both a completion and Done are
		// ready, select picks randomly, and a cancelled sweep must not keep
		// draining completions.
		if err := ctx.Err(); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case err := <-failed:
			return err
		case i := <-done:
			rows, err := p.Complete(i)
			if err != nil {
				return err
			}
			deliver(rows)
		}
	}
	return nil
}

// SlotOf returns the slot physical job i belongs to. Slots number the
// sweep points from 0 and own contiguous, ascending job ranges.
func (p *Plan) SlotOf(i int) int { return p.jobSlot[i] }

// Job returns physical job i's exact simulation inputs: the fully resolved
// configuration — seed included, with the per-slot replicate-seed
// discipline already applied — and the strategy. See the slot-hook
// contract on Plan.
func (p *Plan) Job(i int) (Config, Strategy) {
	j := p.jobs[i]
	return j.cfg, j.st
}

// SetJobResult records the Results of physical job i computed by an
// external executor, exactly as RunJob would have; call Complete(i)
// afterwards to fold the completion into rows. Concurrent calls for
// distinct indices are safe, but a job's SetJobResult must
// happen-before its Complete.
func (p *Plan) SetJobResult(i int, r Results) { p.results[i] = r }

// JobResult returns the recorded Results of physical job i — the zero
// value until RunJob or SetJobResult ran for it.
func (p *Plan) JobResult(i int) Results { return p.results[i] }

// emit builds every row whose dependencies are complete, in row order, so
// the stream of emitted rows is a deterministic prefix of the final row
// slice.
func (p *Plan) emit() ([]Row, error) {
	var batch []Row
	for p.nextRow < len(p.rows) {
		rs := &p.rows[p.nextRow]
		for _, d := range rs.deps {
			if !p.slotDone[d] {
				return batch, nil
			}
		}
		depOuts := make([]runOut, len(rs.deps))
		for k, d := range rs.deps {
			depOuts[k] = p.outs[d]
		}
		r, err := rs.build(depOuts)
		if err != nil {
			return nil, err
		}
		if p.exp.o.keepRuns && len(depOuts) > 0 {
			// The row's own point is its last dependency (earlier deps are
			// references like Fig. 8's improvement baseline).
			r.Runs = depOuts[len(depOuts)-1].runs
		}
		batch = append(batch, r)
		p.nextRow++
	}
	return batch, nil
}

// applyOverrides rewrites one planned point's configuration with the
// experiment-wide WithProfile/WithMetricsWindow overrides, before the
// replication stage fans the point out into per-seed jobs.
func (e *Experiment) applyOverrides(c *Config) {
	if e.o.profileSet {
		c.Profile = e.o.profile
	}
	if e.o.windowSet {
		c.MetricsWindow = e.o.window
	}
	if e.o.faultsSet {
		c.Faults = e.o.faults
	}
}

// expand resolves the source at the experiment's options and applies the
// replication/comparison stages, producing the physical job schedule.
func (e *Experiment) expand(seed int64) ([]runJob, []slot, []rowSpec, error) {
	// compareSet, not a nil check on the pair: WithCompare(nil, nil) must be
	// diagnosed, never degrade into a silently uncompared sweep.
	if e.o.compareSet {
		return e.expandCompared(seed)
	}
	p, err := e.src.plan(e.o.scale, e.o.scaleSet, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	for i := range p.jobs {
		e.applyOverrides(&p.jobs[i].cfg)
	}
	seeds := e.o.seeds
	if seeds == nil {
		if e.o.reps <= 1 {
			// Unreplicated: each point is its own single-job slot.
			slots := make([]slot, len(p.jobs))
			for i := range p.jobs {
				slots[i] = slot{first: i, n: 1, finish: func(results []Results) (runOut, error) {
					return runOut{res: results[0]}, nil
				}}
			}
			return p.jobs, slots, p.rows, nil
		}
		seeds = stats.ReplicateSeeds(seed, e.o.reps)
	}
	if len(seeds) == 0 {
		return nil, nil, nil, fmt.Errorf("dynlb: WithSeeds needs at least one seed")
	}
	conf := e.o.conf
	all := make([]runJob, 0, len(p.jobs)*len(seeds))
	slots := make([]slot, len(p.jobs))
	for i, j := range p.jobs {
		slots[i] = slot{first: len(all), n: len(seeds), finish: func(results []Results) (runOut, error) {
			mean, rep := AggregateResults(results, conf)
			r := rep
			return runOut{res: mean, rep: &r}, nil
		}}
		for _, s := range seeds {
			c := j.cfg
			c.Seed = s
			all = append(all, runJob{cfg: c, st: j.st})
		}
	}
	return all, slots, p.rows, nil
}

// expandCompared builds the paired-comparison schedule: the source's
// strategy-free workload points, each expanded into replicate × {A, B} jobs
// sharing seeds, with one generic row per point.
func (e *Experiment) expandCompared(seed int64) ([]runJob, []slot, []rowSpec, error) {
	if e.o.cmpA == nil || e.o.cmpB == nil {
		return nil, nil, nil, fmt.Errorf("dynlb: WithCompare needs both a baseline and a challenger strategy")
	}
	seeds := e.o.seeds
	if seeds == nil {
		if e.o.reps < 1 {
			return nil, nil, nil, fmt.Errorf("dynlb: a compared experiment needs reps >= 1, got %d", e.o.reps)
		}
		seeds = stats.ReplicateSeeds(seed, e.o.reps)
	}
	if len(seeds) == 0 {
		return nil, nil, nil, fmt.Errorf("dynlb: WithSeeds needs at least one seed")
	}
	pts, err := e.src.comparePlan(e.o.scale, e.o.scaleSet, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	for i := range pts {
		e.applyOverrides(&pts[i].cfg)
	}
	var (
		label = e.src.label()
		conf  = e.o.conf
		reps  = len(seeds)
		sa    = e.o.cmpA
		sb    = e.o.cmpB
	)
	// Job layout: ((point*reps)+replicate)*2 + {A: 0, B: 1} — fixed, so the
	// paired aggregation is independent of worker scheduling.
	jobs := make([]runJob, 0, len(pts)*reps*2)
	slots := make([]slot, len(pts))
	rows := make([]rowSpec, len(pts))
	for i, pt := range pts {
		slots[i] = slot{first: len(jobs), n: 2 * reps, finish: func(results []Results) (runOut, error) {
			runsA := make([]Results, reps)
			runsB := make([]Results, reps)
			for k := 0; k < reps; k++ {
				runsA[k] = results[2*k]
				runsB[k] = results[2*k+1]
			}
			meanB, repB := AggregateResults(runsB, conf)
			pair, err := CompareResults(runsA, runsB, conf)
			if err != nil {
				return runOut{}, err
			}
			out := runOut{res: meanB, cmp: &pair}
			if reps >= 2 {
				rep := repB
				out.rep = &rep
			}
			return out, nil
		}}
		for _, s := range seeds {
			c := pt.cfg
			c.Seed = s
			jobs = append(jobs, runJob{cfg: c, st: sa}, runJob{cfg: c, st: sb})
		}
		rows[i] = rowSpec{deps: []int{i}, build: func(outs []runOut) (Row, error) {
			out := outs[0]
			series := pt.series
			if series == "" {
				series = fmt.Sprintf("%s vs %s", out.cmp.StrategyB, out.cmp.StrategyA)
			}
			return Row{
				Figure: label, Series: series, X: pt.x, XLabel: pt.xlabel,
				JoinRTMS: out.res.JoinRT.MeanMS,
				Res:      out.res,
				Rep:      out.rep,
				Cmp:      out.cmp,
			}, nil
		}}
	}
	return jobs, slots, rows, nil
}
