package dynlb

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// tinySweepCfg is the cheapest meaningful configuration for exercising the
// experiment pipeline: small system, short windows.
func tinySweepCfg() Config {
	cfg := DefaultConfig()
	cfg.NPE = 8
	cfg.JoinQPSPerPE = 0.1
	cfg.Warmup = Seconds(1)
	cfg.MeasureTime = Seconds(3)
	return cfg
}

// tinySweep is a two-axis custom sweep (system size x strategies) no paper
// figure runs — the ISSUE's "custom axis" case.
func tinySweep() Sweep {
	return Sweep{
		Name: "tiny",
		Base: tinySweepCfg(),
		Strategies: []Strategy{
			MustStrategy("psu-opt+RANDOM"),
			MustStrategy("OPT-IO-CPU"),
		},
		Axes: []Axis{
			IntAxis("#PE", func(c *Config, n int) { c.NPE = n }, 8, 10),
		},
	}
}

// TestExperimentValidation: option and source misuse must be reported as
// errors from Run, before any simulation starts (all cases are fast).
func TestExperimentValidation(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		e    *Experiment
		want string
	}{
		{"nil source", NewExperiment(nil), "point source"},
		{"unknown figure", NewExperiment(Figure("nope")), "unknown figure"},
		{"bad confidence", NewExperiment(Figure("6"), WithConfidence(2)), "confidence"},
		{"bad confidence unreplicated", NewExperiment(Figure("6"), WithConfidence(0), WithReps(1)), "confidence"},
		{"reps and seeds", NewExperiment(Figure("6"), WithReps(3), WithSeeds(1, 2)), "mutually exclusive"},
		{"empty seed list", NewExperiment(Figure("6"), WithSeeds()), "at least one seed"},
		{"sweep without strategies", NewExperiment(Sweep{Base: tinySweepCfg()}), "at least one strategy"},
		{"sweep nil strategy", NewExperiment(Sweep{Base: tinySweepCfg(), Strategies: []Strategy{nil}}), "is nil"},
		{"axis without values", NewExperiment(Sweep{
			Base:       tinySweepCfg(),
			Strategies: []Strategy{MustStrategy("MIN-IO")},
			Axes:       []Axis{{Name: "empty"}},
		}), "has no values"},
		{"compare with strategies", NewExperiment(tinySweep(),
			WithCompare(MustStrategy("MIN-IO"), MustStrategy("OPT-IO-CPU"))), "leave Strategies empty"},
		{"compare missing side", NewExperiment(Sweep{Base: tinySweepCfg()},
			WithCompare(nil, MustStrategy("OPT-IO-CPU"))), "baseline and a challenger"},
		{"compare both nil", NewExperiment(Sweep{Base: tinySweepCfg()},
			WithCompare(nil, nil)), "baseline and a challenger"},
		{"compare reps 0", NewExperiment(Sweep{Base: tinySweepCfg()},
			WithCompare(MustStrategy("MIN-IO"), MustStrategy("OPT-IO-CPU")), WithReps(0)), "reps >= 1"},
		{"compare on degree figure", NewExperiment(Figure("1a"),
			WithCompare(MustStrategy("MIN-IO"), MustStrategy("OPT-IO-CPU"))), "no config axis"},
	}
	for _, tc := range cases {
		rows, err := tc.e.Run(ctx)
		if err == nil {
			t.Errorf("%s: accepted (%d rows)", tc.name, len(rows))
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestSweepAxisCrossProduct: point enumeration is the documented order —
// x axis outermost, further axes nested, strategies innermost — and series
// labels compose from the non-x axis labels plus the strategy name.
func TestSweepAxisCrossProduct(t *testing.T) {
	s := Sweep{
		Name:       "grid",
		Base:       tinySweepCfg(),
		Strategies: []Strategy{MustStrategy("MIN-IO"), MustStrategy("OPT-IO-CPU")},
		Axes: []Axis{
			IntAxis("#PE", func(c *Config, n int) { c.NPE = n }, 8, 10),
			NumAxis("qps", func(c *Config, q float64) { c.JoinQPSPerPE = q }, 0.05, 0.1),
		},
	}
	p, err := s.plan(ScaleQuick, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.jobs) != 2*2*2 || len(p.rows) != 8 {
		t.Fatalf("plan size: %d jobs, %d rows, want 8/8", len(p.jobs), len(p.rows))
	}
	// Job 0: NPE=8, qps=0.05, MIN-IO; job 5: NPE=10, qps=0.05, OPT-IO-CPU.
	if p.jobs[0].cfg.NPE != 8 || p.jobs[0].cfg.JoinQPSPerPE != 0.05 || p.jobs[0].st.Name() != "MIN-IO" {
		t.Errorf("job 0 = NPE %d qps %v %s", p.jobs[0].cfg.NPE, p.jobs[0].cfg.JoinQPSPerPE, p.jobs[0].st.Name())
	}
	if p.jobs[5].cfg.NPE != 10 || p.jobs[5].cfg.JoinQPSPerPE != 0.05 || p.jobs[5].st.Name() != "OPT-IO-CPU" {
		t.Errorf("job 5 = NPE %d qps %v %s", p.jobs[5].cfg.NPE, p.jobs[5].cfg.JoinQPSPerPE, p.jobs[5].st.Name())
	}
	// The base seed lands on every point; windows follow the Base config
	// because WithScale was not given.
	base := tinySweepCfg()
	for i, j := range p.jobs {
		if j.cfg.Seed != 7 {
			t.Errorf("job %d seed %d, want 7", i, j.cfg.Seed)
		}
		if j.cfg.Warmup != base.Warmup || j.cfg.MeasureTime != base.MeasureTime {
			t.Errorf("job %d windows changed without WithScale", i)
		}
	}
	// Row 1's series: non-x axis label + strategy.
	r, err := p.rows[1].build([]runOut{{}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Series != "qps=0.05 / OPT-IO-CPU" || r.X != 8 || r.XLabel != "#PE" || r.Figure != "grid" {
		t.Errorf("row 1 = %q x=%v xlabel=%q fig=%q", r.Series, r.X, r.XLabel, r.Figure)
	}
	// WithScale overrides the Base windows.
	p2, err := s.plan(ScaleQuick, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	w, m := ScaleQuick.windows()
	if p2.jobs[0].cfg.Warmup != w || p2.jobs[0].cfg.MeasureTime != m {
		t.Errorf("WithScale did not override sweep windows")
	}
}

// TestCustomSweepDeterminismAcrossWorkers is the custom-axis acceptance
// check: a replicated sweep over a non-figure axis must produce
// bit-identical rows at any worker count, and the progress stream must be
// exactly the returned rows in order.
func TestCustomSweepDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	run := func(workers int) ([]Row, []Row) {
		var streamed []Row
		rows, err := NewExperiment(tinySweep(),
			WithReps(2),
			WithWorkers(workers),
			WithProgress(func(r Row) { streamed = append(streamed, r) }),
		).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rows, streamed
	}
	seq, seqStream := run(1)
	if len(seq) != 4 {
		t.Fatalf("row count %d, want 4 (2 sizes x 2 strategies)", len(seq))
	}
	if !reflect.DeepEqual(seq, seqStream) {
		t.Fatalf("progress stream differs from returned rows:\nrows:   %+v\nstream: %+v", seq, seqStream)
	}
	for i, r := range seq {
		if r.Rep == nil || r.Rep.Reps != 2 {
			t.Fatalf("row %d missing replicate aggregates: %+v", i, r.Rep)
		}
	}
	for _, workers := range []int{4, 0 /* NumCPU */} {
		par, parStream := run(workers)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("rows differ between workers=1 and workers=%d", workers)
		}
		if !reflect.DeepEqual(par, parStream) {
			t.Fatalf("workers=%d progress stream differs from returned rows", workers)
		}
	}
}

// TestExperimentCancellation: cancelling the context mid-sweep returns
// promptly with ctx.Err() instead of completing the remaining points, and a
// pre-cancelled context never starts a simulation.
func TestExperimentCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a few tiny simulations")
	}
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	rows, err := NewExperiment(tinySweep(),
		WithWorkers(1),
		WithProgress(func(Row) {
			seen++
			cancel() // cancel as soon as the first row lands
		}),
	).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v (rows %d), want context.Canceled", err, len(rows))
	}
	if rows != nil {
		t.Errorf("cancelled sweep returned %d rows, want nil", len(rows))
	}
	if seen == 0 || seen >= 4 {
		t.Errorf("progress saw %d rows before cancellation took effect, want 1..3", seen)
	}
}

func TestExperimentPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Figure 1a matters here: its analytic rows have no simulation
	// dependencies and would otherwise stream before the first ctx check.
	for _, src := range []Source{tinySweep(), Figure("1a")} {
		started := false
		_, err := NewExperiment(src, WithScale(ScaleQuick),
			WithProgress(func(Row) { started = true }),
		).Run(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%T: pre-cancelled Run returned %v, want context.Canceled", src, err)
		}
		if started {
			t.Errorf("%T: pre-cancelled Run still streamed rows", src)
		}
	}
}

// TestWithRunsAttachesRawResults: WithRuns exposes the per-replicate
// Results on each row — the public replacement for Replicated.Runs — and
// rows stay lean without it.
func TestWithRunsAttachesRawResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a few tiny simulations")
	}
	ctx := context.Background()
	cfg := tinySweepCfg()
	src := Sweep{Base: cfg, Strategies: []Strategy{MustStrategy("MIN-IO")}}
	rows, err := NewExperiment(src, WithReps(2), WithRuns()).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	runs := rows[0].Runs
	if len(runs) != 2 {
		t.Fatalf("Row.Runs has %d results, want 2", len(runs))
	}
	mean, _ := AggregateResults(runs, DefaultConfidence)
	if !reflect.DeepEqual(mean, rows[0].Res) {
		t.Errorf("re-aggregating Row.Runs does not reproduce Row.Res")
	}
	bare, err := NewExperiment(src, WithReps(2)).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if bare[0].Runs != nil {
		t.Errorf("Row.Runs populated without WithRuns")
	}
}

// TestExperimentJobError: an experiment that cannot run fails with its
// error, leaving no goroutine behind. An invalid point config (reached
// through an axis, a replicated sweep or a compared sweep) fails at Plan,
// before any job runs, with the config's error; a strategy whose Decide
// panics passes Plan and aborts the sweep at its job with that panic.
func TestExperimentJobError(t *testing.T) {
	bad := tinySweepCfg()
	bad.NPE = 0
	a, b := MustStrategy("psu-opt+RANDOM"), MustStrategy("MIN-IO")
	cases := []struct {
		name   string
		e      *Experiment
		atPlan bool  // Plan itself fails
		want   error // nil: any error
	}{
		{"invalid axis point", NewExperiment(Sweep{
			Base:       tinySweepCfg(),
			Strategies: []Strategy{b},
			Axes: []Axis{
				IntAxis("#PE", func(c *Config, n int) { c.NPE = n }, 0), // invalid
			},
		}), true, nil},
		{"invalid replicated config", NewExperiment(Sweep{Base: bad, Strategies: []Strategy{b}},
			WithSeeds(1, 2)), true, nil},
		{"invalid compared config", NewExperiment(Sweep{Base: bad},
			WithCompare(a, b), WithSeeds(1)), true, nil},
		{"panicking strategy", NewExperiment(Sweep{Base: tinySweepCfg(), Strategies: []Strategy{panicky{}}}),
			false, errDecide},
	}
	for _, tc := range cases {
		if _, err := tc.e.Plan(); (err != nil) != tc.atPlan {
			t.Errorf("%s: Plan error %v, want failure at Plan %v", tc.name, err, tc.atPlan)
		}
		before := runtime.NumGoroutine()
		rows, err := tc.e.Run(context.Background())
		if err == nil {
			t.Errorf("%s: accepted (%d rows)", tc.name, len(rows))
		} else if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
		waitGoroutines(t, before)
	}
}

// TestPlanOutOfOrderCompletionMatchesRun: the exported Plan hooks are
// schedule-independent — running jobs in reverse and completing them in
// reverse order emits exactly Run's rows, in the same order, across the
// concatenated Complete batches. This is the contract the dynlbd scheduler
// (internal/service) builds on when it interleaves many experiments over
// one shared pool.
func TestPlanOutOfOrderCompletionMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	exp := func() *Experiment { return NewExperiment(tinySweep(), WithReps(2)) }
	want, err := exp().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	p, err := exp().Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRows() != len(want) {
		t.Fatalf("NumRows %d, want %d", p.NumRows(), len(want))
	}
	got, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	for i := p.NumJobs() - 1; i >= 0; i-- {
		if err := p.RunJob(i); err != nil {
			t.Fatal(err)
		}
		rows, err := p.Complete(i)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rows...)
	}
	if !p.Done() {
		t.Fatal("plan not done after completing every job")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("out-of-order plan rows differ from Run rows:\n got %+v\nwant %+v", got, want)
	}
}
