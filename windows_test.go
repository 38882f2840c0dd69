package dynlb

import (
	"bytes"
	"context"
	"encoding/csv"
	"reflect"
	"testing"
)

// burstCompareRows runs the canonical non-stationary comparison sweep: a
// quick-scale flash crowd under the static baseline vs the integrated
// dynamic strategy, paired seeds, 1s metrics windows. The profile and
// window arrive through the experiment options, so the test exercises the
// full surfacing path (option -> config override -> engine -> Results).
func burstCompareRows(t *testing.T, workers int) []Row {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NPE = 20
	cfg.JoinQPSPerPE = 0.1
	rows, err := NewExperiment(
		Sweep{Name: "burst", Base: cfg},
		WithScale(ScaleQuick),
		WithCompare(MustStrategy("psu-opt+RANDOM"), MustStrategy("OPT-IO-CPU")),
		WithReps(3),
		WithProfile(FlashCrowd(Seconds(2), Seconds(2), 3, 1.5)),
		WithMetricsWindow(Seconds(1)),
		WithWorkers(workers),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestBurstCompareWindowedDeterminism: the windowed rows of a non-stationary
// compared sweep are bit-identical regardless of worker count — window
// collection lives inside each point's own kernel, so parallelism cannot
// touch it. reflect.DeepEqual covers every field including the Windows
// slices.
func TestBurstCompareWindowedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	sequential := burstCompareRows(t, 1)
	parallel := burstCompareRows(t, 0) // 0 = NumCPU
	if !reflect.DeepEqual(sequential, parallel) {
		t.Fatal("windowed compared rows differ between -parallel 1 and NumCPU workers")
	}
	if len(sequential) != 1 || len(sequential[0].Res.Windows) != 8 {
		t.Fatalf("expected 1 row with 8 windows (8s quick measurement at 1s), got %d rows, %d windows",
			len(sequential), len(sequential[0].Res.Windows))
	}
	if sequential[0].Cmp == nil {
		t.Fatal("compared sweep produced no comparison block")
	}
}

// TestGoldenBurstCompareQuick locks the windowed comparison CSV bytes: the
// burst sweep's per-window series, peak and recovery columns next to the
// comparison columns. Any change to the profile modulation, the window
// collection or the CSV packing shifts these bytes.
func TestGoldenBurstCompareQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	skipUnlessGoldenArch(t)
	lockGolden(t, "burst_compare_quick.csv", burstCompareRows(t, 0))
}

// TestWriteRowsCSVWindowedColumns: windowed columns appear only when some
// row has windows, steady-state rows in a windowed set carry empty cells,
// and every record has the same width as the header.
func TestWriteRowsCSVWindowedColumns(t *testing.T) {
	win := []Window{
		{StartMS: 0, EndMS: 1000, Joins: 3, RTMeanMS: 100, RTP95MS: 150, JoinTPS: 3, CPUUtil: 0.5, DiskUtil: 0.25, MemUtil: 0.125},
		{StartMS: 1000, EndMS: 2000, Joins: 1, RTMeanMS: 400, RTP95MS: 400, JoinTPS: 1, CPUUtil: 0.75, DiskUtil: 0.5, MemUtil: 0.25},
	}
	rows := []Row{
		{Figure: "w", Series: "a", Res: Results{Windows: win, WindowMS: 1000, PeakWindowRTMS: 400, RecoveryMS: -1}},
		{Figure: "w", Series: "steady"}, // no windows: cells stay empty
	}
	recs := parseCSV(t, rows)
	header := recs[0]
	idx := map[string]int{}
	for i, h := range header {
		idx[h] = i
	}
	for _, col := range []string{"windows", "window_ms", "peak_win_rt_ms", "recovery_ms", "win_rt_mean_ms", "win_mem"} {
		if _, ok := idx[col]; !ok {
			t.Fatalf("windowed header missing %q: %v", col, header)
		}
	}
	got := recs[1]
	if got[idx["windows"]] != "2" || got[idx["window_ms"]] != "1000" ||
		got[idx["peak_win_rt_ms"]] != "400.00" || got[idx["recovery_ms"]] != "-1.00" {
		t.Errorf("windowed summary cells wrong: %v", got)
	}
	if got[idx["win_rt_mean_ms"]] != "100.00;400.00" || got[idx["win_tps"]] != "3.000;1.000" ||
		got[idx["win_mem"]] != "0.1250;0.2500" {
		t.Errorf("packed window series wrong: %v", got)
	}
	steady := recs[2]
	for _, col := range []string{"windows", "window_ms", "win_rt_mean_ms", "win_mem"} {
		if steady[idx[col]] != "" {
			t.Errorf("steady row filled windowed column %q: %q", col, steady[idx[col]])
		}
	}

	// Without windows anywhere, the windowed columns must not exist at all —
	// the goldens locked before this feature depend on it.
	plain := parseCSV(t, []Row{{Figure: "w", Series: "steady"}})
	for _, h := range plain[0] {
		if h == "windows" || h == "win_rt_mean_ms" {
			t.Fatalf("unwindowed row set grew a %q column", h)
		}
	}
}

// TestWriteRowsCSVMixedBlocksAlignment: rows carrying any mix of
// replication, comparison and windowed blocks must all emit records of the
// header's width — csv.Reader errors on ragged rows, so parseCSV doubles as
// the assertion.
func TestWriteRowsCSVMixedBlocksAlignment(t *testing.T) {
	win := []Window{{StartMS: 0, EndMS: 500, Joins: 1, RTMeanMS: 10, RTP95MS: 10, JoinTPS: 2}}
	rows := []Row{
		{Figure: "m", Series: "rep only", Rep: &Replication{Reps: 3, Conf: 0.95}},
		{Figure: "m", Series: "cmp only", Cmp: &PairedComparison{StrategyA: "a", StrategyB: "b", Reps: 3, Conf: 0.95}},
		{Figure: "m", Series: "win only", Res: Results{Windows: win, WindowMS: 500}},
		{Figure: "m", Series: "bare", Extra: map[string]float64{"k": 1}},
		{Figure: "m", Series: "all", Extra: map[string]float64{"k": 2},
			Rep: &Replication{Reps: 2, Conf: 0.9},
			Cmp: &PairedComparison{StrategyA: "a", StrategyB: "b"},
			Res: Results{Windows: win, WindowMS: 500}},
	}
	recs := parseCSV(t, rows)
	if len(recs) != len(rows)+1 {
		t.Fatalf("got %d records, want %d", len(recs), len(rows)+1)
	}
	want := len(recs[0])
	for i, r := range recs {
		if len(r) != want {
			t.Errorf("record %d has %d fields, header has %d", i, len(r), want)
		}
	}
}

// TestWriteRowsCSVEmptyRowSet: zero rows still write the base header.
func TestWriteRowsCSVEmptyRowSet(t *testing.T) {
	recs := parseCSV(t, nil)
	if len(recs) != 1 {
		t.Fatalf("empty row set wrote %d records, want header only", len(recs))
	}
	if recs[0][0] != "figure" || len(recs[0]) != 7 {
		t.Errorf("base header wrong: %v", recs[0])
	}
}

func parseCSV(t *testing.T, rows []Row) [][]string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRowsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v", err)
	}
	return recs
}

// TestAggregateResultsWindows: window series aggregate element-wise onto a
// fresh slice (never aliasing runs[0]), the peak averages per-run peaks, and
// recovery averages only over the runs that recovered.
func TestAggregateResultsWindows(t *testing.T) {
	mk := func(rts []float64, peak, rec float64) Results {
		ws := make([]Window, len(rts))
		for i, rt := range rts {
			ws[i] = Window{StartMS: float64(i * 1000), EndMS: float64((i + 1) * 1000),
				Joins: i + 1, RTMeanMS: rt, JoinTPS: float64(i + 1), CPUUtil: 0.5}
		}
		return Results{Windows: ws, WindowMS: 1000, PeakWindowRTMS: peak, RecoveryMS: rec}
	}
	runs := []Results{mk([]float64{100, 300}, 300, -1), mk([]float64{200, 500}, 500, 600)}
	mean, _ := AggregateResults(runs, 0.95)

	if len(mean.Windows) != 2 || mean.Windows[0].RTMeanMS != 150 || mean.Windows[1].RTMeanMS != 400 {
		t.Fatalf("element-wise window means wrong: %+v", mean.Windows)
	}
	if mean.Windows[0].StartMS != 0 || mean.Windows[1].EndMS != 2000 || mean.WindowMS != 1000 {
		t.Errorf("window grid not preserved: %+v", mean.Windows)
	}
	if mean.PeakWindowRTMS != 400 {
		t.Errorf("peak = %v, want mean of per-run peaks 400", mean.PeakWindowRTMS)
	}
	if mean.RecoveryMS != 600 {
		t.Errorf("recovery = %v, want 600 (only the recovered run counts)", mean.RecoveryMS)
	}

	// No aliasing: writing the aggregate must not reach runs[0].
	mean.Windows[0].RTMeanMS = -1
	if runs[0].Windows[0].RTMeanMS != 100 {
		t.Fatal("mean.Windows aliases runs[0].Windows")
	}

	// No run recovered: the aggregate keeps the "never" marker.
	never := []Results{mk([]float64{1}, 1, -1), mk([]float64{2}, 2, -1)}
	if m, _ := AggregateResults(never, 0.95); m.RecoveryMS != -1 {
		t.Errorf("all-unrecovered aggregate recovery = %v, want -1", m.RecoveryMS)
	}

	// Heterogeneous grids cannot aggregate element-wise: drop the series.
	mixed := []Results{mk([]float64{1, 2}, 2, -1), mk([]float64{3}, 3, -1)}
	if m, _ := AggregateResults(mixed, 0.95); m.Windows != nil {
		t.Errorf("mismatched window grids still aggregated: %+v", m.Windows)
	}
}
