package engine

import (
	"testing"

	"dynlb/internal/config"
	"dynlb/internal/core"
	"dynlb/internal/sim"
)

// oltpPinned is what TestOLTPResultsPinned holds fixed for one run: the
// OLTP response-time count and exact mean, the deadlock-victim aborts and
// detector victims, the joins running beside the transactions, the fault
// layer's abort and retry counts, and the kernel's event and spawn totals.
type oltpPinned struct {
	N                  int
	MeanMS             float64
	OLTPAborts         int64
	Deadlocks          int64
	JoinsDone          int64
	Aborts, Retries    int64
	Dispatched, Spawns int64
}

// TestOLTPResultsPinned runs debit-credit OLTP beside joins (the Fig. 9
// mix) and asserts exact results. No golden reaches the OLTP path, so this
// pins its event stream: lock grant and wake-up order, deadlock victims,
// buffer replacement and the disk cache must reproduce every value bit for
// bit. The hot cases contend on a two-page hot set so the deadlock
// detector aborts victims; the crash case also aborts transactions
// mid-flight through the fault layer.
func TestOLTPResultsPinned(t *testing.T) {
	hot := func(c *config.Config) {
		c.OLTP.HotSetPages = 2
		c.OLTP.HotAccessProb = 0.9
		c.OLTP.TPSPerNode = 150
	}
	cases := []struct {
		name   string
		mutate func(*config.Config)
		want   oltpPinned
	}{
		{"b-nodes", func(*config.Config) {},
			oltpPinned{5999, 288.179516594766, 0, 0, 1, 0, 0, 329255, 21138}},
		{"b-nodes/hot", hot,
			oltpPinned{1722, 3214.962050789202, 76, 76, 3, 0, 0, 103580, 11822}},
		{"b-nodes/hot/crash", func(c *config.Config) {
			hot(c)
			c.Faults = mustFaults(t, "crash(pe=7,at=2s,down=3s)")
		}, oltpPinned{1660, 3605.8703986668615, 70, 70, 3, 40, 40, 100630, 11672}},
		{"a-nodes", func(c *config.Config) { c.OLTP.Placement = config.OLTPOnANode },
			oltpPinned{1570, 67.19311806560502, 0, 0, 3, 0, 0, 99841, 5076}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Default()
			cfg.NPE = 10
			cfg.DisksPerPE = 5
			cfg.JoinQPSPerPE = 0.075
			cfg.OLTP.Placement = config.OLTPOnBNode
			cfg.OLTP.TPSPerNode = 100
			cfg.Warmup = sim.Second
			cfg.MeasureTime = 8 * sim.Second
			tc.mutate(&cfg)
			s := MustNew(cfg, core.MustByName("OPT-IO-CPU"))
			res := s.Run()
			st := s.Kernel().Stats()
			got := oltpPinned{res.OLTPRT.N, res.OLTPRT.MeanMS, res.OLTPAborts, res.Deadlocks,
				res.JoinsDone, res.Aborts, res.Retries, st.Dispatched, st.Spawns}
			if got != tc.want {
				t.Errorf("got  %#v\nwant %#v", got, tc.want)
			}
			if got.N == 0 {
				t.Error("no OLTP transaction completed")
			}
		})
	}
}

// TestOLTPTransactionAllocs: a steady-state debit-credit transaction
// allocates one object, its private buffer.Space. Lock-table entries and
// key lists, buffer frames, disk-cache nodes and background writes are all
// recycled, and the transaction builds no name and no escaping closure.
func TestOLTPTransactionAllocs(t *testing.T) {
	cfg := config.Default()
	cfg.NPE = 2
	cfg.JoinQPSPerPE = 0
	s := MustNew(cfg, core.MustByName("psu-opt+RANDOM"))
	pe := s.pe(0)
	txns, stop := 0, false
	s.k.Spawn("oltp-driver", func(p *sim.Proc) {
		for !stop {
			s.runOLTP(p, pe, s.k.Now())
			txns++
		}
	})
	// Each call runs exactly batch transactions: the driver completes
	// them one at a time, and each forces a log write far longer than the
	// 1 ms step.
	const batch = 20
	horizon := s.k.Now()
	runBatch := func() {
		for target := txns + batch; txns < target; {
			horizon += sim.Millisecond
			s.k.Run(horizon)
		}
	}
	// Warm-up: free lists, maps, the calendar and the hot set fill, in
	// about 1,000 transactions.
	for i := 0; i < 50; i++ {
		runBatch()
	}
	perTxn := testing.AllocsPerRun(50, runBatch) / batch
	stop = true
	s.k.RunAll()
	if perTxn > 1 {
		t.Errorf("%.2f allocations per OLTP transaction, want at most 1 (its buffer.Space)", perTxn)
	}
}
