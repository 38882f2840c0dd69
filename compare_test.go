package dynlb

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestCompareResultsHandValues: paired aggregation over hand-made results
// must produce exact means, deltas, improvements and the hand-computed
// paired-t and unpaired half-widths. b is a constant 10% below a, so the
// improvement stream is exactly {10, 10, 10} and the correlation exactly 1.
func TestCompareResultsHandValues(t *testing.T) {
	mk := func(strategy string, rt float64) Results {
		return Results{Strategy: strategy, JoinRT: Summary{MeanMS: rt}}
	}
	runsA := []Results{mk("A", 100), mk("A", 110), mk("A", 120)}
	runsB := []Results{mk("B", 90), mk("B", 99), mk("B", 108)}
	pc, err := CompareResults(runsA, runsB, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if pc.StrategyA != "A" || pc.StrategyB != "B" || pc.Reps != 3 || pc.Conf != 0.95 {
		t.Fatalf("comparison meta wrong: %+v", pc)
	}
	d := pc.JoinRTMS
	if d.A != 110 || d.B != 99 || d.Delta.Mean != -11 {
		t.Errorf("means/delta wrong: %+v", d)
	}
	// Per-pair deltas {-10, -11, -12}: sd 1, t(0.95, 2) = 4.3027.
	const tCrit = 4.302652729911275
	if want := tCrit / math.Sqrt(3); math.Abs(d.Delta.HW-want) > 1e-9 {
		t.Errorf("paired delta HW %v, want %v", d.Delta.HW, want)
	}
	if d.Improv.Mean != 10 || math.Abs(d.Improv.HW) > 1e-9 {
		t.Errorf("improvement %v ±%v, want exactly 10 ±0", d.Improv.Mean, d.Improv.HW)
	}
	// s²A = 100, s²B = 81: unpaired delta HW = t·sqrt(181/3).
	wantUnpaired := tCrit * math.Sqrt(181.0/3)
	if math.Abs(d.UnpairedDeltaHW-wantUnpaired) > 1e-6 {
		t.Errorf("unpaired delta HW %v, want %v", d.UnpairedDeltaHW, wantUnpaired)
	}
	if math.Abs(d.UnpairedImprovHW-100*wantUnpaired/110) > 1e-6 {
		t.Errorf("unpaired improvement HW %v, want %v", d.UnpairedImprovHW, 100*wantUnpaired/110)
	}
	if math.Abs(d.Corr-1) > 1e-12 {
		t.Errorf("correlation %v, want 1", d.Corr)
	}
	if d.Delta.HW >= d.UnpairedDeltaHW || d.Improv.HW >= d.UnpairedImprovHW {
		t.Errorf("paired half-widths not tighter: %+v", d)
	}
}

func TestSplitCompare(t *testing.T) {
	a, b, err := SplitCompare(" psu-opt+RANDOM , OPT-IO-CPU ")
	if err != nil || a != "psu-opt+RANDOM" || b != "OPT-IO-CPU" {
		t.Errorf("SplitCompare = %q, %q, %v", a, b, err)
	}
	for _, bad := range []string{"", "one", "a,b,c", ",b", "a,", " , "} {
		if _, _, err := SplitCompare(bad); err == nil {
			t.Errorf("SplitCompare(%q) accepted", bad)
		}
	}
}

func TestCompareResultsRejects(t *testing.T) {
	one := []Results{{Strategy: "A"}}
	if _, err := CompareResults(nil, nil, 0.95); err == nil {
		t.Error("empty pair list accepted")
	}
	if _, err := CompareResults(one, []Results{{}, {}}, 0.95); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := CompareResults(one, one, 1.5); err == nil {
		t.Error("confidence 1.5 accepted")
	}
}

// TestCompareSharesSeeds: the A side of a paired comparison must be
// bit-identical to a replicated sweep of strategy A on the same seed list —
// the pairing adds B runs on the same seeds, it must not perturb A's
// stream. And the paired metric means must agree with the per-strategy
// Replication.
func TestCompareSharesSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	ctx := context.Background()
	cfg := quickConfig()
	a, b := MustStrategy("psu-opt+RANDOM"), MustStrategy("OPT-IO-CPU")
	seeds := ReplicateSeeds(cfg.Seed, 3)
	cmpRows, err := NewExperiment(Sweep{Base: cfg},
		WithCompare(a, b), WithSeeds(seeds...), WithRuns()).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	repRows, err := NewExperiment(Sweep{Base: cfg, Strategies: []Strategy{a}},
		WithSeeds(seeds...), WithRuns()).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// A compared row's runs interleave {A, B} per seed.
	cmpRow := cmpRows[0]
	var runsA []Results
	for k := 0; k < len(cmpRow.Runs); k += 2 {
		runsA = append(runsA, cmpRow.Runs[k])
	}
	if !reflect.DeepEqual(runsA, repRows[0].Runs) {
		t.Errorf("A side of the comparison differs from the replicated sweep of A on the same seeds")
	}
	c := cmpRow.Cmp
	if c.JoinRTMS.A != repRows[0].Rep.JoinRTMS.Mean || c.JoinRTMS.B != cmpRow.Rep.JoinRTMS.Mean {
		t.Errorf("paired means diverge from per-strategy replication: %+v vs %v/%v",
			c.JoinRTMS, repRows[0].Rep.JoinRTMS.Mean, cmpRow.Rep.JoinRTMS.Mean)
	}
	if c.StrategyA != "psu-opt+RANDOM" || c.StrategyB != "OPT-IO-CPU" {
		t.Errorf("strategy names: %q vs %q", c.StrategyA, c.StrategyB)
	}
	if cmpRow.Series != "OPT-IO-CPU vs psu-opt+RANDOM" {
		t.Errorf("compared single-point series = %q", cmpRow.Series)
	}
	wantDelta := c.JoinRTMS.B - c.JoinRTMS.A
	if math.Abs(c.JoinRTMS.Delta.Mean-wantDelta) > 1e-9 {
		t.Errorf("delta mean %v != B−A %v", c.JoinRTMS.Delta.Mean, wantDelta)
	}
}

// TestCompareSinglePair: a compared single-point sweep on cfg.Seed alone
// runs one pair — means present, all half-widths zero, no Replication.
func TestCompareSinglePair(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := quickConfig()
	rows, err := NewExperiment(Sweep{Base: cfg},
		WithCompare(MustStrategy("psu-opt+RANDOM"), MustStrategy("OPT-IO-CPU")),
		WithSeeds(cfg.Seed), WithRuns()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if c := rows[0].Cmp; c.Reps != 1 || len(rows[0].Runs) != 2 || rows[0].Rep != nil {
		t.Fatalf("single comparison shape: %+v, %d runs, Rep %+v", c, len(rows[0].Runs), rows[0].Rep)
	}
	d := rows[0].Cmp.JoinRTMS
	if d.A <= 0 || d.B <= 0 {
		t.Errorf("missing response times: %+v", d)
	}
	if d.Delta.HW != 0 || d.Improv.HW != 0 || d.UnpairedDeltaHW != 0 {
		t.Errorf("single pair produced half-widths: %+v", d)
	}
}

func TestCompareFiguresAreKnown(t *testing.T) {
	known := map[string]bool{}
	for _, f := range Figures() {
		known[f] = true
	}
	for _, f := range CompareFigures() {
		if !known[f] {
			t.Errorf("CompareFigures lists unknown figure %q", f)
		}
	}
}

// TestRunFigureComparedDeterminismAndPairing is the acceptance check of the
// comparison subsystem on a real figure sweep (Fig. 8's workload axis at
// quick scale): compared rows must be bit-identical at -parallel 1 and
// -parallel 8, and — because both strategies of every replicate share their
// seed — the paired confidence half-width on the %-improvement must be
// strictly tighter than the unpaired (independent-seed) half-width on the
// same replicate count.
func TestRunFigureComparedDeterminismAndPairing(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation sweep")
	}
	// Three replicates, not two: at n=2 the sample correlation of any
	// non-constant pair is exactly ±1 and the paired-vs-unpaired ordering
	// is near-tautological; n=3 makes the tightness and correlation
	// assertions informative.
	const (
		stratA = "psu-opt+RANDOM"
		stratB = "OPT-IO-CPU"
		reps   = 3
	)
	pair := WithCompare(MustStrategy(stratA), MustStrategy(stratB))
	seq := quickFigure(t, "8", 3, pair, WithReps(reps), WithWorkers(1))
	par := quickFigure(t, "8", 3, pair, WithReps(reps), WithWorkers(8))
	if len(seq) != len(par) || len(seq) == 0 {
		t.Fatalf("row counts: sequential %d, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Fatalf("row %d differs between workers=1 and workers=8:\nseq: %+v\npar: %+v", i, seq[i], par[i])
		}
	}
	for i, r := range seq {
		if r.Cmp == nil {
			t.Fatalf("row %d missing paired aggregates", i)
		}
		c := r.Cmp
		if c.Reps != reps || c.StrategyA != stratA || c.StrategyB != stratB {
			t.Fatalf("row %d comparison meta: %+v", i, c)
		}
		if r.JoinRTMS != c.JoinRTMS.B {
			t.Errorf("row %d scalar RT %v is not strategy B's mean %v", i, r.JoinRTMS, c.JoinRTMS.B)
		}
		if r.Rep == nil || r.Rep.Reps != reps {
			t.Errorf("row %d missing strategy B replication aggregates", i)
		}
		// The variance-reduction claim: common random numbers make the
		// paired intervals strictly tighter than independent seeds would.
		if c.JoinRTMS.Improv.HW >= c.JoinRTMS.UnpairedImprovHW {
			t.Errorf("row %d (x=%g): paired improvement HW %.3f%% not strictly below unpaired %.3f%% (corr %.3f)",
				i, r.X, c.JoinRTMS.Improv.HW, c.JoinRTMS.UnpairedImprovHW, c.JoinRTMS.Corr)
		}
		if c.JoinRTMS.Delta.HW >= c.JoinRTMS.UnpairedDeltaHW {
			t.Errorf("row %d (x=%g): paired delta HW %.3f not strictly below unpaired %.3f",
				i, r.X, c.JoinRTMS.Delta.HW, c.JoinRTMS.UnpairedDeltaHW)
		}
		if c.JoinRTMS.Corr <= 0 {
			t.Errorf("row %d: non-positive replicate correlation %.3f — common random numbers not biting", i, c.JoinRTMS.Corr)
		}
	}
}

// TestWriteRowsCSVComparisonColumns: rows carrying paired aggregates gain
// the comparison columns; rows without stay blank in them; uncompared
// output keeps the original header (golden compatibility).
func TestWriteRowsCSVComparisonColumns(t *testing.T) {
	pc := PairedComparison{
		StrategyA: "A", StrategyB: "B", Reps: 3, Conf: 0.95,
		JoinRTMS: DeltaCI{
			A: 110, B: 99,
			Delta:            MeanCI{Mean: -11, HW: 2.5},
			Improv:           MeanCI{Mean: 10, HW: 0.5},
			UnpairedDeltaHW:  33.4,
			UnpairedImprovHW: 30.4,
			Corr:             0.99,
		},
	}
	rows := []Row{
		{Figure: "8", Series: "60 PE", X: 1, XLabel: "selectivity%", JoinRTMS: 99, Cmp: &pc},
		{Figure: "8", Series: "analytic", X: 1, XLabel: "selectivity%", JoinRTMS: 1},
	}
	var buf bytes.Buffer
	if err := WriteRowsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("line count %d: %q", len(lines), buf.String())
	}
	header := lines[0]
	for _, col := range []string{"strategy_a", "strategy_b", "rt_delta_ms", "rt_improv_pct", "rt_unpaired_improv_hw_pct", "rt_corr"} {
		if !strings.Contains(header, col) {
			t.Errorf("header missing %q: %s", col, header)
		}
	}
	if !strings.Contains(lines[1], ",A,B,110.00,99.00,-11.00,2.50,10.000,0.500,30.400,0.9900") {
		t.Errorf("compared row lacks comparison cells: %s", lines[1])
	}
	if !strings.HasSuffix(lines[2], ",,,,,,,,,,") {
		t.Errorf("uncompared row should have blank comparison cells: %s", lines[2])
	}

	// Without any Cmp the header must not change.
	buf.Reset()
	if err := WriteRowsCSV(&buf, rows[1:]); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "strategy_a") {
		t.Errorf("uncompared output grew comparison columns: %s", buf.String())
	}
}
