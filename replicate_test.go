package dynlb

import (
	"context"
	"math"
	"reflect"
	"testing"

	"dynlb/internal/stats"
)

// TestAggregateResultsMeans: field-wise aggregation over hand-made results
// must produce exact means, rounded counts, and the Student-t half-width.
func TestAggregateResultsMeans(t *testing.T) {
	mk := func(rt float64, tps float64, cpu float64, joins int64) Results {
		return Results{
			Strategy: "X", NPE: 40, PsuOpt: 30, PsuNoIO: 3,
			JoinRT:    Summary{N: int(joins), MeanMS: rt, P95MS: 2 * rt, HW95MS: rt / 10},
			JoinTPS:   tps,
			CPUUtil:   cpu,
			JoinsDone: joins,
		}
	}
	runs := []Results{mk(100, 1, 0.5, 10), mk(110, 2, 0.6, 11), mk(120, 3, 0.7, 13)}
	mean, rep := AggregateResults(runs, 0.95)

	if mean.Strategy != "X" || mean.NPE != 40 || mean.PsuOpt != 30 || mean.PsuNoIO != 3 {
		t.Errorf("identification fields not preserved: %+v", mean)
	}
	if mean.JoinRT.MeanMS != 110 || mean.JoinRT.P95MS != 220 || mean.JoinRT.HW95MS != 11 {
		t.Errorf("JoinRT summary means wrong: %+v", mean.JoinRT)
	}
	if mean.JoinTPS != 2 || math.Abs(mean.CPUUtil-0.6) > 1e-12 {
		t.Errorf("scalar means wrong: tps=%v cpu=%v", mean.JoinTPS, mean.CPUUtil)
	}
	// (10+11+13)/3 = 11.33 rounds to 11.
	if mean.JoinsDone != 11 || mean.JoinRT.N != 11 {
		t.Errorf("count means wrong: JoinsDone=%d N=%d, want 11", mean.JoinsDone, mean.JoinRT.N)
	}

	if rep.Reps != 3 || rep.Conf != 0.95 {
		t.Errorf("rep meta wrong: %+v", rep)
	}
	if rep.JoinRTMS.Mean != 110 {
		t.Errorf("rep mean %v, want 110", rep.JoinRTMS.Mean)
	}
	// sd = 10, t(0.95, df=2) = 4.3027, hw = 4.3027 * 10/sqrt(3).
	want := 4.302652729911275 * 10 / math.Sqrt(3)
	if math.Abs(rep.JoinRTMS.HW-want) > 1e-3 {
		t.Errorf("rep half-width %v, want %v", rep.JoinRTMS.HW, want)
	}
}

func TestAggregateResultsDegenerate(t *testing.T) {
	mean, rep := AggregateResults(nil, 0.95)
	if !reflect.DeepEqual(mean, Results{}) || rep.Reps != 0 {
		t.Errorf("empty aggregation not zero: %+v %+v", mean, rep)
	}
	one := Results{JoinTPS: 5, JoinRT: Summary{MeanMS: 42}}
	mean, rep = AggregateResults([]Results{one}, 0.9)
	if !reflect.DeepEqual(mean, one) {
		t.Errorf("single-run mean differs from the run: %+v", mean)
	}
	if rep.Reps != 1 || rep.JoinRTMS.Mean != 42 || rep.JoinRTMS.HW != 0 {
		t.Errorf("single-run rep: %+v", rep)
	}
}

// TestRunReplicatedExtendsSingleRun: replicate 0 of the standard seed
// stream is the base seed itself, so the first replicated run must be
// field-identical to a plain Run of the same configuration.
func TestRunReplicatedExtendsSingleRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := quickConfig()
	st := MustStrategy("OPT-IO-CPU")
	single, err := Run(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := NewExperiment(Sweep{Base: cfg, Strategies: []Strategy{st}},
		WithSeeds(ReplicateSeeds(cfg.Seed, 3)...), WithRuns()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	runs, mean, rep := rows[0].Runs, rows[0].Res, rows[0].Rep
	if len(runs) != 3 || rep.Reps != 3 || rep.Conf != DefaultConfidence {
		t.Fatalf("replication shape: %d runs, rep %+v", len(runs), rep)
	}
	if !reflect.DeepEqual(runs[0], single) {
		t.Errorf("replicate 0 differs from the unreplicated run:\nrep0:   %+v\nsingle: %+v", runs[0], single)
	}
	// The aggregate mean must be bracketed by the replicate extremes.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range runs {
		lo = math.Min(lo, r.JoinRT.MeanMS)
		hi = math.Max(hi, r.JoinRT.MeanMS)
	}
	if mean.JoinRT.MeanMS < lo || mean.JoinRT.MeanMS > hi {
		t.Errorf("mean RT %v outside replicate range [%v, %v]", mean.JoinRT.MeanMS, lo, hi)
	}
	if rep.JoinRTMS.Mean != mean.JoinRT.MeanMS {
		t.Errorf("Rep mean %v != Mean results %v", rep.JoinRTMS.Mean, mean.JoinRT.MeanMS)
	}
}

// TestReplicateSeedsReExport: the root-package re-export must match the
// stats stream (the contract both commands and the figure harness rely on).
func TestReplicateSeedsReExport(t *testing.T) {
	if got, want := ReplicateSeeds(7, 5), stats.ReplicateSeeds(7, 5); !reflect.DeepEqual(got, want) {
		t.Errorf("ReplicateSeeds diverged from internal/stats: %v vs %v", got, want)
	}
	seeds := ReplicateSeeds(7, 5)
	if seeds[0] != 7 {
		t.Errorf("replicate 0 seed %d, want base 7", seeds[0])
	}
}
