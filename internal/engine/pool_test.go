package engine

import (
	"runtime"
	"testing"

	"dynlb/internal/config"
	"dynlb/internal/core"
	"dynlb/internal/sim"
)

// TestGoroutineCeiling verifies the pool's scaling contract during a real
// multi-user run: the worker-goroutine count stays bounded by the peak
// number of live simulated processes — not by the tens of thousands of
// processes spawned — and Shutdown (called by System.Run) releases
// everything afterwards.
func TestGoroutineCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	before := runtime.NumGoroutine()
	cfg := quickCfg()
	cfg.OLTP.Placement = config.OLTPOnANode
	cfg.OLTP.TPSPerNode = 50
	s := MustNew(cfg, core.MustByName("OPT-IO-CPU"))

	// Sample from inside the simulation: a monitor process wakes every
	// simulated 100 ms and records the OS goroutine count and the kernel's
	// own census.
	maxOS, maxLive, maxWorkers := 0, 0, 0
	s.Kernel().Spawn("monitor", func(p *sim.Proc) {
		for {
			p.Wait(100 * sim.Millisecond)
			if g := runtime.NumGoroutine(); g > maxOS {
				maxOS = g
			}
			if l := s.Kernel().Live(); l > maxLive {
				maxLive = l
			}
			if w := s.Kernel().Stats().LiveGoroutines; w > maxWorkers {
				maxWorkers = w
			}
		}
	})
	s.Run()
	st := s.Kernel().Stats()

	if st.Spawns < 1000 {
		t.Fatalf("run spawned only %d processes; workload too small to test the ceiling", st.Spawns)
	}
	// Worker goroutines are parked-or-live workers: bounded by the peak
	// live process count (each live process holds one worker; the pool
	// holds at most the peak ever needed), never by total spawns. The
	// sampled live maximum can miss the true inter-sample peak, so the
	// bound carries slack — the point is the order, not the constant.
	if maxWorkers > 4*(maxLive+8) {
		t.Errorf("worker goroutines peaked at %d with peak %d sampled live processes", maxWorkers, maxLive)
	}
	if int64(maxWorkers) >= st.Spawns/10 {
		t.Errorf("worker peak %d is not far below %d total spawns", maxWorkers, st.Spawns)
	}
	// The OS count tracks the workers plus the test harness's own
	// goroutines.
	if maxOS > before+maxWorkers+10 {
		t.Errorf("OS goroutines peaked at %d (baseline %d, workers %d)", maxOS, before, maxWorkers)
	}
	// System.Run shut the kernel down: all workers gone.
	if st.LiveGoroutines != 0 {
		t.Errorf("LiveGoroutines = %d after Run, want 0", st.LiveGoroutines)
	}
}
