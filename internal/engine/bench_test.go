package engine

import (
	"testing"

	"dynlb/internal/config"
	"dynlb/internal/core"
	"dynlb/internal/sim"
)

// Engine-level benchmarks of the kernel's inner loop one layer up: an OLTP
// transaction is a tight chain of short CPU holds, lock calls, buffer fixes
// and a forced log write — a few dozen timed holds per transaction.

// BenchmarkOLTPTransaction runs b.N debit-credit transactions on a minimal
// system with no competing query workload: a closed loop calling runOLTP
// directly, so ns/op is per transaction, not per simulated second.
func BenchmarkOLTPTransaction(b *testing.B) {
	cfg := config.Default()
	cfg.NPE = 2
	cfg.JoinQPSPerPE = 0
	s := MustNew(cfg, core.MustByName("psu-opt+RANDOM"))
	pe := s.pe(0)
	s.k.Spawn("oltp-driver", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			s.runOLTP(p, pe, s.k.Now())
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.k.RunAll()
}

// BenchmarkOLTPSpawned measures the arrival-loop shape — one process
// spawned per transaction, exactly what startWorkload's open OLTP loop
// does — so process birth is part of ns/op. The spawn hands the body to a
// parked worker.
func BenchmarkOLTPSpawned(b *testing.B) {
	cfg := config.Default()
	cfg.NPE = 2
	cfg.JoinQPSPerPE = 0
	s := MustNew(cfg, core.MustByName("psu-opt+RANDOM"))
	pe := s.pe(0)
	done := sim.NewChan[int](s.k, "done")
	runTxn := func(tp *sim.Proc) {
		s.runOLTP(tp, pe, tp.Now())
		done.Put(1)
	}
	s.k.Spawn("oltp-driver", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			s.k.Spawn("oltp-txn", runTxn)
			done.Get(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.k.RunAll()
	b.StopTimer()
	s.k.Shutdown()
}

// BenchmarkScanQuery measures one full standalone clustered scan query:
// coordinator, fragment scans (sequential page reads with prefetch,
// per-page tuple processing, result packets over the network) and the
// read-only commit round.
func BenchmarkScanQuery(b *testing.B) {
	cfg := config.Default()
	cfg.NPE = 2
	cfg.JoinQPSPerPE = 0
	s := MustNew(cfg, core.MustByName("psu-opt+RANDOM"))
	class := config.ScanClass{Name: "bench", Selectivity: 0.01, Clustered: true}
	s.k.Spawn("scan-driver", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			s.runScanQuery(p, 0, class, s.k.Now())
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.k.RunAll()
}
