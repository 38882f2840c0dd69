package engine

import (
	"testing"

	"dynlb/internal/config"
	"dynlb/internal/core"
	"dynlb/internal/sim"
)

// Engine-level benchmarks isolating the inner-loop cost the kernel's
// continuation fast path removes: an OLTP transaction is a tight chain of
// short CPU holds, lock calls, buffer fixes and a forced log write — a few
// dozen timed holds per transaction that previously each paid two
// goroutine switches. The Parked variants run the identical workload with
// the fast path disabled, so the switch cost is visible above the
// microbenchmark layer in the same binary.

// benchOLTP runs b.N debit-credit transactions on a minimal system with no
// competing query workload: a closed loop calling runOLTP directly, so
// ns/op is per transaction, not per simulated second.
func benchOLTP(b *testing.B, inline bool) {
	cfg := config.Default()
	cfg.NPE = 2
	cfg.JoinQPSPerPE = 0
	s := MustNew(cfg, core.MustByName("psu-opt+RANDOM"))
	s.Kernel().SetInlineDispatch(inline)
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

func BenchmarkOLTPTransaction(b *testing.B)       { benchOLTP(b, true) }
func BenchmarkOLTPTransactionParked(b *testing.B) { benchOLTP(b, false) }

// benchOLTPSpawned measures the arrival-loop shape — one process spawned
// per transaction, exactly what startWorkload's open OLTP loop does — so
// process birth is part of ns/op. With pooling the spawn hands the body to
// a parked worker; the Unpooled variant pays a fresh coroutine and Proc
// per transaction (the pre-pool behavior).
func benchOLTPSpawned(b *testing.B, pooled bool) {
	cfg := config.Default()
	cfg.NPE = 2
	cfg.JoinQPSPerPE = 0
	s := MustNew(cfg, core.MustByName("psu-opt+RANDOM"))
	s.Kernel().SetSpawnPooling(pooled)
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

func BenchmarkOLTPSpawned(b *testing.B)         { benchOLTPSpawned(b, true) }
func BenchmarkOLTPSpawnedUnpooled(b *testing.B) { benchOLTPSpawned(b, false) }

// benchScanQuery measures one full standalone clustered scan query:
// coordinator, fragment scans (sequential page reads with prefetch,
// per-page tuple processing, result packets over the network) and the
// read-only commit round.
func benchScanQuery(b *testing.B, inline bool) {
	cfg := config.Default()
	cfg.NPE = 2
	cfg.JoinQPSPerPE = 0
	s := MustNew(cfg, core.MustByName("psu-opt+RANDOM"))
	s.Kernel().SetInlineDispatch(inline)
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

func BenchmarkScanQuery(b *testing.B)       { benchScanQuery(b, true) }
func BenchmarkScanQueryParked(b *testing.B) { benchScanQuery(b, false) }
