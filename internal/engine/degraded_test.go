package engine

import (
	"testing"

	"dynlb/internal/config"
	"dynlb/internal/core"
	"dynlb/internal/sim"
)

// degradedPinned is what TestDegradedResultsPinned holds fixed for one run:
// join and OLTP response-time counts and exact means, the deadlock aborts,
// the temporary I/O and disk and CPU utilization the degraded stations
// show, the fault layer's abort and retry counts, and the kernel's event
// and spawn totals.
type degradedPinned struct {
	JoinN              int
	JoinMeanMS         float64
	OLTPN              int
	OLTPMeanMS         float64
	OLTPAborts         int64
	TempIOPages        int64
	DiskUtil, CPUUtil  float64
	Aborts, Retries    int64
	Dispatched, Spawns int64
}

// TestDegradedResultsPinned asserts exact results under slow disks and
// straggler CPUs, and with zero disk service times. No golden reaches
// these paths: each stage of a disk I/O (controller, arm, controller) and
// each CPU charge must be stretched by the factor in force when the
// process arrives at that station — also when a fault window opens or
// closes between two stages of one I/O — and a zero-length visit must pass
// through its station without an event.
func TestDegradedResultsPinned(t *testing.T) {
	oltp := func(c *config.Config) {
		c.DisksPerPE = 5
		c.JoinQPSPerPE = 0.075
		c.OLTP.Placement = config.OLTPOnBNode
		c.OLTP.TPSPerNode = 100
	}
	cases := []struct {
		name   string
		mutate func(*config.Config)
		faults string
		want   degradedPinned
	}{
		{"oltp/slowdisk", oltp, "slowdisk(pe=2,at=1s,for=4s,factor=6)",
			degradedPinned{0, 0, 3662, 324.5267832037136, 0, 2089, 0.7023232479400001, 0.46191376799999995, 0, 0, 248882, 15525}},
		{"oltp/straggler", oltp, "straggler(pe=1,at=1s,for=3s,factor=3);straggler(pe=3,at=2s,for=2s,factor=1.7)",
			degradedPinned{1, 5691.992047, 4643, 231.77441452078412, 0, 1558, 0.6943713748, 0.5055135544833333, 0, 0, 259769, 16155}},
		{"join/crash+slowdisk+straggler", func(c *config.Config) { c.JoinQPSPerPE = 0.3 },
			"crash(pe=4,at=2s,down=2s);slowdisk(pe=2,at=1s,for=4s,factor=4);straggler(pe=1,at=3s,factor=2)",
			degradedPinned{8, 1887.64200925, 0, 0, 0, 5458, 0.04464635304666666, 0.44606473526666673, 2, 2, 131432, 635}},
		{"memory-bound/two-slowdisks", func(c *config.Config) {
			c.BufferPages = 5
			c.DisksPerPE = 1
			c.JoinQPSPerPE = 0.2
		}, "slowdisk(pe=3,at=1s,for=2s,factor=5);slowdisk(pe=3,at=4s,for=2s,factor=2.3)",
			degradedPinned{6, 2464.277403666667, 0, 0, 0, 6108, 0.3028806670666667, 0.21696952255, 0, 0, 51240, 383}},
		{"oltp/no-transfer-no-prefetch", func(c *config.Config) {
			oltp(c)
			c.Disk.TransferPerPage = 0
			c.Disk.PrefetchPerPage = 0
		}, "", degradedPinned{1, 5693.899272, 4087, 352.6529006625885, 0, 4309, 0.6874783013300001, 0.5529978333, 0, 0, 267384, 16444}},
		{"oltp/no-controller", func(c *config.Config) {
			oltp(c)
			c.Disk.CtrlPerPage = 0
		}, "", degradedPinned{0, 0, 4103, 321.03761316841343, 0, 2540, 0.7022541849866666, 0.5090456822499999, 0, 0, 233235, 16359}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Default()
			cfg.NPE = 10
			cfg.Warmup = sim.Second
			cfg.MeasureTime = 6 * sim.Second
			tc.mutate(&cfg)
			if tc.faults != "" {
				cfg.Faults = mustFaults(t, tc.faults)
			}
			s := MustNew(cfg, core.MustByName("OPT-IO-CPU"))
			res := s.Run()
			st := s.Kernel().Stats()
			got := degradedPinned{res.JoinRT.N, res.JoinRT.MeanMS, res.OLTPRT.N, res.OLTPRT.MeanMS,
				res.OLTPAborts, res.TempIOPages, res.DiskUtil, res.CPUUtil,
				res.Aborts, res.Retries, st.Dispatched, st.Spawns}
			if got != tc.want {
				t.Errorf("got  %#v\nwant %#v", got, tc.want)
			}
			if got.JoinN+got.OLTPN == 0 {
				t.Error("nothing completed")
			}
		})
	}
}
