package dynlb

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"dynlb/internal/config"
)

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.NPE = 10
	cfg.JoinQPSPerPE = 0.1
	cfg.Warmup = Seconds(2)
	cfg.MeasureTime = Seconds(6)
	return cfg
}

func TestRunSmoke(t *testing.T) {
	res, err := Run(quickConfig(), MustStrategy("OPT-IO-CPU"))
	if err != nil {
		t.Fatal(err)
	}
	if res.JoinsDone == 0 {
		t.Fatal("no joins completed")
	}
	if res.Strategy != "OPT-IO-CPU" {
		t.Errorf("strategy = %q", res.Strategy)
	}
}

// TestRunRejectsInvalidConfig: Validate turns every config the simulation
// cannot run into an error, rather than letting it panic mid-run (which Run
// would report as "simulation panicked"), hang at time 0 or run on NaN.
func TestRunRejectsInvalidConfig(t *testing.T) {
	nan := math.NaN()
	cases := map[string]func(*Config){
		"NPE 0":                  func(c *Config) { c.NPE = 0 },
		"TupleBytes 0":           func(c *Config) { c.TupleBytes = 0 },
		"Disk.Prefetch 0":        func(c *Config) { c.Disk.Prefetch = 0 },
		"Net.PacketBytes 0":      func(c *Config) { c.Net.PacketBytes = 0 },
		"CtrlSmoothing 0":        func(c *Config) { c.CtrlSmoothing = 0 },
		"CtrlSmoothing 5":        func(c *Config) { c.CtrlSmoothing = 5 },
		"ReportInterval -1":      func(c *Config) { c.ReportInterval = -1 },
		"MIPS NaN":               func(c *Config) { c.MIPS = nan },
		"ScanSelectivity NaN":    func(c *Config) { c.ScanSelectivity = nan },
		"FudgeFactor NaN":        func(c *Config) { c.FudgeFactor = nan },
		"AFraction NaN":          func(c *Config) { c.AFraction = nan },
		"RedistributionSkew NaN": func(c *Config) { c.RedistributionSkew = nan },
		"OLTP hot probability NaN": func(c *Config) {
			c.OLTP.Placement = OLTPOnBNode
			c.OLTP.HotAccessProb = nan
		},
		"Net.Latency -1ms":          func(c *Config) { c.Net.Latency = -Seconds(0.001) },
		"Net.WirePerPacket -1ms":    func(c *Config) { c.Net.WirePerPacket = -Seconds(0.001) },
		"Disk.CtrlPerPage -1ms":     func(c *Config) { c.Disk.CtrlPerPage = -Seconds(0.001) },
		"Disk.TransferPerPage -1ms": func(c *Config) { c.Disk.TransferPerPage = -Seconds(0.001) },
		"JoinQPSPerPE -1":           func(c *Config) { c.JoinQPSPerPE = -1 },
		"JoinQPSPerPE NaN":          func(c *Config) { c.JoinQPSPerPE = nan },
		"JoinQPSPerPE +Inf":         func(c *Config) { c.JoinQPSPerPE = math.Inf(1) },
		"OLTP TPSPerNode +Inf": func(c *Config) {
			c.OLTP.Placement = OLTPOnBNode
			c.OLTP.TPSPerNode = math.Inf(1)
		},
		"scan class QPSPerPE +Inf": func(c *Config) {
			c.ScanClasses = []config.ScanClass{{Name: "s", QPSPerPE: math.Inf(1), Selectivity: 0.01, Clustered: true}}
		},
	}
	base := DefaultConfig()
	base.NPE = 5
	base.JoinQPSPerPE = 0.1
	base.Warmup = Seconds(0.5)
	base.MeasureTime = Seconds(1)
	if err := base.Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
	for name, mutate := range cases {
		cfg := base
		mutate(&cfg)
		_, err := Run(cfg, MustStrategy("OPT-IO-CPU"))
		switch {
		case err == nil:
			t.Errorf("%s: invalid config accepted", name)
		case strings.Contains(err.Error(), "panicked"):
			t.Errorf("%s: rejected by a panic, not by Validate: %.120s", name, err)
		}
	}
}

func TestStrategyNamesRoundTrip(t *testing.T) {
	names := StrategyNames()
	if len(names) != 12 {
		t.Fatalf("%d built-in strategies, want 12", len(names))
	}
	for _, n := range names {
		s, err := StrategyByName(n)
		if err != nil || s.Name() != n {
			t.Errorf("StrategyByName(%q) = %v, %v", n, s, err)
		}
	}
}

func TestPsuValuesMatchPaper(t *testing.T) {
	cfg := DefaultConfig()
	if got := PsuNoIO(cfg); got != 3 {
		t.Errorf("PsuNoIO = %d, want 3 (paper, 1%% selectivity)", got)
	}
	if got := PsuOpt(cfg); got < 15 || got > 45 {
		t.Errorf("PsuOpt = %d, want paper region [15,45] (paper: 30)", got)
	}
}

func TestResponseTimeCurveShape(t *testing.T) {
	cfg := DefaultConfig()
	curve := ResponseTimeCurve(cfg, 80)
	if len(curve) != 80 {
		t.Fatalf("curve length %d", len(curve))
	}
	opt := PsuOpt(cfg)
	if curve[0] <= curve[opt-1] || curve[79] <= curve[opt-1] {
		t.Errorf("curve not U-shaped around the optimum %d", opt)
	}
}

func TestFixedDegree(t *testing.T) {
	s, err := FixedDegree(5, "LUM")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Name(), "p=5") {
		t.Errorf("name = %q", s.Name())
	}
	if _, err := FixedDegree(5, "bogus"); err == nil {
		t.Error("bogus selection accepted")
	}
}

// TestCustomStrategy verifies the extension point: a user-defined strategy
// drives the full simulation.
type leastBusy struct{}

func (leastBusy) Name() string { return "custom-least-busy" }
func (leastBusy) Decide(q QueryInfo, v *View, rng *rand.Rand) Decision {
	k := q.PsuNoIO + 1
	if k > v.N() {
		k = v.N()
	}
	pes := v.ByCPU()[:k]
	return Decision{JoinPEs: append([]int(nil), pes...), MemPerPE: (q.HashPages() + k - 1) / k}
}

func TestCustomStrategy(t *testing.T) {
	res, err := Run(quickConfig(), leastBusy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.JoinsDone == 0 {
		t.Fatal("custom strategy completed no joins")
	}
	if res.Strategy != "custom-least-busy" {
		t.Errorf("strategy = %q", res.Strategy)
	}
}

var errDecide = errors.New("decide failed")

// panicky is a custom strategy whose Decide panics. The control node calls
// Decide inside the simulation, in its "ctrl-decide" process.
type panicky struct{}

func (panicky) Name() string { return "custom-panicky" }
func (panicky) Decide(QueryInfo, *View, *rand.Rand) Decision {
	panic(errDecide)
}

// TestStrategyPanicRecoverable: a panic in a user strategy comes back from
// Run as an error (the service scheduler and the fleet worker rely on this
// to contain a bad job) that unwraps to the panic value, shows the panic
// site's stack, and leaves no goroutine behind.
func TestStrategyPanicRecoverable(t *testing.T) {
	before := runtime.NumGoroutine()
	_, err := Run(quickConfig(), panicky{})
	if !errors.Is(err, errDecide) {
		t.Fatalf("Run returned %v, want errDecide", err)
	}
	if !strings.Contains(err.Error(), "panicky.Decide") {
		t.Errorf("error does not show the stack of Decide:\n%v", err)
	}
	waitGoroutines(t, before)
}

// waitGoroutines fails the test unless the goroutine count falls back to
// before within a few seconds.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("%d goroutines alive, %d before", g, before)
	}
}

func TestFiguresListAndDocs(t *testing.T) {
	figs := Figures()
	if len(figs) != 9 {
		t.Fatalf("%d figures, want 9", len(figs))
	}
	for _, f := range figs {
		if FigureDoc(f) == "" {
			t.Errorf("figure %s has no doc", f)
		}
	}
	if _, err := NewExperiment(Figure("nope"), WithScale(ScaleQuick)).Run(context.Background()); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunFigure1aQuick(t *testing.T) {
	rows := quickFigure(t, "1a", 1, WithWorkers(1))
	var analytic, simulated int
	for _, r := range rows {
		switch r.Series {
		case "analytic":
			analytic++
		case "simulated":
			simulated++
		}
		if r.JoinRTMS <= 0 {
			t.Errorf("non-positive RT in row %+v", r)
		}
	}
	if analytic != 40 || simulated != len([]int{1, 2, 4, 8, 12, 16, 20, 24, 32, 40}) {
		t.Errorf("analytic=%d simulated=%d", analytic, simulated)
	}
	txt := FormatRows(rows)
	if !strings.Contains(txt, "Figure 1a") {
		t.Errorf("FormatRows header missing: %s", txt[:60])
	}
}

func TestFormatRowsEmpty(t *testing.T) {
	if got := FormatRows(nil); got != "(no rows)\n" {
		t.Errorf("FormatRows(nil) = %q", got)
	}
}

func TestRunFigureDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	a := quickFigure(t, "1a", 7, WithWorkers(1))
	b := quickFigure(t, "1a", 7, WithWorkers(1))
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].JoinRTMS != b[i].JoinRTMS || a[i].Series != b[i].Series || a[i].X != b[i].X {
			t.Fatalf("row %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}
