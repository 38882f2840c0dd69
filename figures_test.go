package dynlb

import (
	"context"
	"reflect"
	"testing"
)

// quickFigure runs figure fig at quick scale from seed with the further
// options opts, failing the test on error.
func quickFigure(t *testing.T, fig string, seed int64, opts ...Option) []Row {
	t.Helper()
	opts = append([]Option{WithScale(ScaleQuick), WithSeed(seed)}, opts...)
	rows, err := NewExperiment(Figure(fig), opts...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestRunFigureParallelMatchesSequential: a figure sweep must produce
// bit-identical rows (values, order, and per-run Results) whether its
// points run sequentially or on a worker pool. Every point simulates on an
// independent kernel and RNG, so the worker count must be invisible in the
// output.
func TestRunFigureParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation sweep")
	}
	seq := quickFigure(t, "1c", 3, WithWorkers(1))
	par := quickFigure(t, "1c", 3, WithWorkers(8))
	if len(seq) != len(par) {
		t.Fatalf("row counts differ: sequential %d, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Fatalf("row %d differs between -parallel 1 and -parallel 8:\nseq: %+v\npar: %+v",
				i, seq[i], par[i])
		}
	}
}

// TestRunFigureReplicatedMatchesSequential mirrors the parallel-vs-
// sequential test for the replication layer: a replicated sweep is a pure
// function of (fig, scale, seed, reps), so rows — means, half-widths, and
// the replicate-aggregated Results — must be bit-identical whether the
// point x replicate jobs run sequentially, on a small pool, or on NumCPU
// workers.
func TestRunFigureReplicatedMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation sweep")
	}
	const reps = 2
	seq := quickFigure(t, "1c", 3, WithReps(reps), WithWorkers(1))
	for _, workers := range []int{4, 0 /* NumCPU */} {
		par := quickFigure(t, "1c", 3, WithReps(reps), WithWorkers(workers))
		if len(seq) != len(par) {
			t.Fatalf("row counts differ: sequential %d, workers=%d %d", len(seq), workers, len(par))
		}
		for i := range seq {
			if !reflect.DeepEqual(seq[i], par[i]) {
				t.Fatalf("row %d differs between workers=1 and workers=%d:\nseq: %+v\npar: %+v",
					i, workers, seq[i], par[i])
			}
		}
	}
	for i, r := range seq {
		if r.Rep == nil || r.Rep.Reps != reps {
			t.Fatalf("row %d missing replicate aggregates: %+v", i, r.Rep)
		}
		if r.Rep.Conf != DefaultConfidence {
			t.Fatalf("row %d confidence %v, want %v", i, r.Rep.Conf, DefaultConfidence)
		}
		if r.JoinRTMS != r.Rep.JoinRTMS.Mean {
			t.Fatalf("row %d JoinRTMS %v != replicate mean %v", i, r.JoinRTMS, r.Rep.JoinRTMS.Mean)
		}
	}
}

// TestRunFigureReplicatedRepsOneIdentical: a reps=1 "replicated" sweep must
// be byte-identical to the unreplicated sweep — same rows, Rep nil — so
// golden comparisons and existing consumers survive the replication layer.
func TestRunFigureReplicatedRepsOneIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation sweep")
	}
	plain := quickFigure(t, "1c", 3, WithWorkers(0))
	rep1 := quickFigure(t, "1c", 3, WithReps(1), WithWorkers(4))
	if !reflect.DeepEqual(plain, rep1) {
		t.Fatalf("reps=1 rows differ from the unreplicated sweep:\nplain: %+v\nrep1:  %+v", plain, rep1)
	}
	for i, r := range rep1 {
		if r.Rep != nil {
			t.Fatalf("row %d has non-nil Rep at reps=1", i)
		}
	}
}
