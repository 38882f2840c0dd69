package dynlb

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden CSV files under testdata/")

// Golden-row regression tests: the quick-scale fig1a and fig6 sweeps (seed
// 1, reps 1) and the fig8 paired-comparison sweep (seed 1, reps 3) are
// locked as exact CSV bytes. Any kernel, engine, cost model, statistics or
// row-shaping change that moves a reproduced curve — even in the last
// decimal — fails here and must either be fixed or explicitly re-golded
// with `go test -run TestGolden -update .`. The simulator is a
// deterministic integer-time DES and Go floating point is reproducible on
// amd64, so the bytes are stable across runs and worker counts (the sweeps
// run on NumCPU workers, so the goldens double as a parallelism-invariance
// check).

// skipUnlessGoldenArch skips before any sweep simulates: other
// architectures may fuse multiply-adds, shifting metrics in the last
// decimal, and the goldens are amd64 bytes — running minutes of simulation
// just to skip would waste the machine.
func skipUnlessGoldenArch(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bytes recorded on amd64; GOARCH=%s may differ in the last float digit", runtime.GOARCH)
	}
}

// lockGolden compares the rows' CSV bytes against testdata/file. With
// -update it creates testdata/ if missing and rewrites the golden, printing
// to stderr which files were rewritten (and which were already current), so
// the re-gold is visible without -v.
func lockGolden(t *testing.T, file string, rows []Row) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRowsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if old, err := os.ReadFile(path); err == nil && bytes.Equal(old, buf.Bytes()) {
			fmt.Fprintf(os.Stderr, "golden: %s already current (%d rows)\n", path, len(rows))
			return
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "golden: rewrote %s (%d rows, %d bytes)\n", path, len(rows), buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("quick-scale CSV drifted from %s.\nRe-run with -update if the change is intentional.\n%s",
			path, diffLines(want, buf.Bytes()))
	}
}

func goldenSweep(t *testing.T, fig, file string) {
	t.Helper()
	skipUnlessGoldenArch(t)
	lockGolden(t, file, quickFigure(t, fig, 1))
}

// diffLines renders the first few differing lines of two CSV bodies.
func diffLines(want, got []byte) string {
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	n := len(w)
	if len(g) > n {
		n = len(g)
	}
	out := ""
	shown := 0
	for i := 0; i < n && shown < 5; i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if !bytes.Equal(wl, gl) {
			out += fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s\n", i+1, wl, gl)
			shown++
		}
	}
	return out
}

func TestGoldenFig1aQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	goldenSweep(t, "1a", "fig1a_quick.csv")
}

func TestGoldenFig6Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute simulation sweep on small machines")
	}
	goldenSweep(t, "6", "fig6_quick.csv")
}

// TestGoldenFig8CompareQuick locks the paired-comparison CSV shape and
// bytes: Fig. 8's workload axis swept under psu-opt+RANDOM (the paper's
// baseline) vs OPT-IO-CPU with three shared replicate seeds — replication
// plus comparison columns in one file. Three replicates, not two: with
// n=2 any non-constant pair has sample correlation exactly ±1, so the
// locked rt_corr values would be degenerate rather than evidence of the
// variance reduction.
func TestGoldenFig8CompareQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation sweep")
	}
	skipUnlessGoldenArch(t)
	rows := quickFigure(t, "8", 1,
		WithCompare(MustStrategy("psu-opt+RANDOM"), MustStrategy("OPT-IO-CPU")), WithReps(3))
	lockGolden(t, "fig8_compare_quick.csv", rows)
}
