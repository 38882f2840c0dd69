package engine

import (
	"testing"

	"dynlb/internal/config"
	"dynlb/internal/core"
	"dynlb/internal/sim"
)

func scanClassCfg(class config.ScanClass) config.Config {
	cfg := config.Default()
	cfg.NPE = 10
	cfg.JoinQPSPerPE = 0.02 // keep a trickle of joins alongside
	cfg.ScanClasses = []config.ScanClass{class}
	cfg.Warmup = 2 * sim.Second
	cfg.MeasureTime = 10 * sim.Second
	return cfg
}

func TestClusteredScanClassCompletes(t *testing.T) {
	cfg := scanClassCfg(config.ScanClass{
		Name: "sel-b", QPSPerPE: 0.1, OnB: true, Selectivity: 0.005, Clustered: true,
	})
	res := MustNew(cfg, core.MustByName("OPT-IO-CPU")).Run()
	if res.ScanRT.N == 0 {
		t.Fatal("no scan queries completed")
	}
	if res.ScanRT.MeanMS <= 0 || res.ScanRT.MeanMS > 5000 {
		t.Fatalf("scan query RT %.1fms implausible", res.ScanRT.MeanMS)
	}
	if res.JoinsDone == 0 {
		t.Error("joins starved by scan class")
	}
}

func TestNonClusteredScanSlowerThanClustered(t *testing.T) {
	run := func(clustered bool) Results {
		cfg := scanClassCfg(config.ScanClass{
			Name: "x", QPSPerPE: 0.05, OnB: false, Selectivity: 0.002, Clustered: clustered,
		})
		cfg.JoinQPSPerPE = 0.001
		return MustNew(cfg, core.MustByName("OPT-IO-CPU")).Run()
	}
	cl := run(true)
	ncl := run(false)
	if cl.ScanRT.N == 0 || ncl.ScanRT.N == 0 {
		t.Fatalf("missing completions: clustered n=%d non-clustered n=%d", cl.ScanRT.N, ncl.ScanRT.N)
	}
	// Random per-tuple page accesses must cost more than a sequential
	// sweep of the matching pages.
	if ncl.ScanRT.MeanMS <= cl.ScanRT.MeanMS {
		t.Errorf("non-clustered scan (%.0fms) not slower than clustered (%.0fms)",
			ncl.ScanRT.MeanMS, cl.ScanRT.MeanMS)
	}
}

func TestLargeRelationScanClass(t *testing.T) {
	// Selectivity 0.1 with the clustered path sweeps 10% of A: about 625
	// pages per A node; sequential I/O dominates the response time.
	cfg := scanClassCfg(config.ScanClass{
		Name: "tenth-a", QPSPerPE: 0.05, OnB: false, Selectivity: 0.1, Clustered: true,
	})
	cfg.JoinQPSPerPE = 0.001
	cfg.MeasureTime = 25 * sim.Second
	res := MustNew(cfg, core.MustByName("OPT-IO-CPU")).Run()
	if res.ScanRT.N == 0 {
		t.Fatal("no large scans completed")
	}
	// Reading ~625 pages sequentially costs seconds, not milliseconds.
	if res.ScanRT.MeanMS < 1000 {
		t.Errorf("large relation scan RT %.0fms suspiciously fast", res.ScanRT.MeanMS)
	}
}

func TestScanClassValidation(t *testing.T) {
	cfg := config.Default()
	cfg.ScanClasses = []config.ScanClass{{Name: "bad", QPSPerPE: 0, Selectivity: 0.1}}
	if err := cfg.Validate(); err == nil {
		t.Error("zero-rate scan class accepted")
	}
	cfg.ScanClasses = []config.ScanClass{{Name: "bad", QPSPerPE: 1, Selectivity: 1.5}}
	if err := cfg.Validate(); err == nil {
		t.Error("selectivity > 1 accepted")
	}
}

// scanPinned is what TestScanQueryResultsPinned holds fixed for one run:
// the scan classes' response-time count and exact mean, the joins running
// beside them, the fault layer's abort and retry counts, and the kernel's
// event and spawn totals.
type scanPinned struct {
	N               int
	MeanMS          float64
	JoinsDone       int64
	Aborts, Retries int64
	Dispatched      int64
	Spawns          int64
}

// TestScanQueryResultsPinned runs a clustered and a non-clustered scan
// class on relation B, each without faults and under a crash of a scan
// host (plus a straggler) that aborts scan attempts, and asserts exact
// results. The scan-query coordinator and its fault path have no golden,
// so this pins their event stream: a refactor of the coordinator protocol
// must reproduce every value bit for bit.
func TestScanQueryResultsPinned(t *testing.T) {
	const faults = "crash(pe=3,at=2s,down=3s);straggler(pe=2,at=1s,factor=3)"
	cases := []struct {
		name   string
		class  config.ScanClass
		faults string
		want   scanPinned
	}{
		{"clustered", config.ScanClass{Name: "cl", QPSPerPE: 0.1, OnB: true, Selectivity: 0.002, Clustered: true}, "",
			scanPinned{14, 108.32329678571429, 1, 0, 0, 21209, 472}},
		{"clustered/crash", config.ScanClass{Name: "cl", QPSPerPE: 0.1, OnB: true, Selectivity: 0.002, Clustered: true}, faults,
			scanPinned{16, 137.28609106250002, 1, 2, 2, 25086, 546}},
		{"nonclustered", config.ScanClass{Name: "ncl", QPSPerPE: 0.1, OnB: true, Selectivity: 0.0005}, "",
			scanPinned{11, 1156.9290398181818, 1, 0, 0, 55726, 440}},
		{"nonclustered/crash", config.ScanClass{Name: "ncl", QPSPerPE: 0.1, OnB: true, Selectivity: 0.0005}, faults,
			scanPinned{14, 1468.4898747142859, 1, 3, 3, 76622, 538}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Default()
			cfg.NPE = 10
			cfg.JoinQPSPerPE = 0.02
			cfg.ScanClasses = []config.ScanClass{tc.class}
			cfg.Warmup = sim.Second
			cfg.MeasureTime = 8 * sim.Second
			if tc.faults != "" {
				cfg.Faults = mustFaults(t, tc.faults)
			}
			s := MustNew(cfg, core.MustByName("OPT-IO-CPU"))
			res := s.Run()
			st := s.Kernel().Stats()
			got := scanPinned{res.ScanRT.N, res.ScanRT.MeanMS, res.JoinsDone, res.Aborts, res.Retries, st.Dispatched, st.Spawns}
			if got != tc.want {
				t.Errorf("got  %#v\nwant %#v", got, tc.want)
			}
			if got.N == 0 {
				t.Error("no scan query completed")
			}
			if tc.faults != "" && got.Aborts == 0 {
				t.Error("the crash aborted no attempt")
			}
		})
	}
}
