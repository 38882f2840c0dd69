package buffer

import (
	"testing"

	"dynlb/internal/disk"
	"dynlb/internal/sim"
)

// testHooks counts I/O and charges a fixed simulated delay per read.
type testHooks struct {
	reads  int
	writes int
}

func (h *testHooks) hooks() DiskHooks {
	return DiskHooks{
		ReadPage: func(p *sim.Proc, pg disk.PageID, seq bool) {
			h.reads++
			p.Wait(10 * sim.Millisecond)
		},
		WriteAsync: func(pg disk.PageID) { h.writes++ },
	}
}

func pg(n int64) disk.PageID { return disk.PageID{Space: 1, Page: n} }

func TestFixMissThenHit(t *testing.T) {
	k := sim.NewKernel()
	h := &testHooks{}
	m := NewManager(k, "pe0", 10, h.hooks())
	k.Spawn("p", func(p *sim.Proc) {
		if m.Fix(p, pg(1), false, false, PriorityOLTP) {
			t.Error("first fix reported hit")
		}
		m.Unfix(pg(1))
		if !m.Fix(p, pg(1), false, false, PriorityOLTP) {
			t.Error("second fix reported miss")
		}
		m.Unfix(pg(1))
	})
	k.RunAll()
	if h.reads != 1 {
		t.Errorf("reads=%d, want 1", h.reads)
	}
	if m.Hits() != 1 || m.Fixes() != 2 {
		t.Errorf("hits=%d fixes=%d", m.Hits(), m.Fixes())
	}
}

func TestPinAccounting(t *testing.T) {
	k := sim.NewKernel()
	h := &testHooks{}
	m := NewManager(k, "pe0", 10, h.hooks())
	k.Spawn("p", func(p *sim.Proc) {
		m.Fix(p, pg(1), false, false, PriorityOLTP)
		m.Fix(p, pg(2), false, false, PriorityOLTP)
		if m.Pinned() != 2 || m.Avail() != 8 {
			t.Errorf("pinned=%d avail=%d, want 2/8", m.Pinned(), m.Avail())
		}
		m.Unfix(pg(1))
		if m.Pinned() != 1 || m.Avail() != 9 {
			t.Errorf("after unfix pinned=%d avail=%d, want 1/9", m.Pinned(), m.Avail())
		}
		if m.Resident() != 2 {
			t.Errorf("resident=%d, want 2 (unpinned page stays cached)", m.Resident())
		}
		m.Unfix(pg(2))
	})
	k.RunAll()
}

func TestLRUEvictionOrderAndDirtyWriteback(t *testing.T) {
	k := sim.NewKernel()
	h := &testHooks{}
	m := NewManager(k, "pe0", 3, h.hooks())
	k.Spawn("p", func(p *sim.Proc) {
		for i := int64(1); i <= 3; i++ {
			m.Fix(p, pg(i), i == 1, false, PriorityOLTP) // page 1 dirty
			m.Unfix(pg(i))
		}
		// touch page 1 so page 2 becomes LRU
		m.Fix(p, pg(1), false, false, PriorityOLTP)
		m.Unfix(pg(1))
		// new page must evict page 2 (clean), no writeback yet
		m.Fix(p, pg(4), false, false, PriorityOLTP)
		m.Unfix(pg(4))
		if h.writes != 0 {
			t.Errorf("clean eviction wrote back: writes=%d", h.writes)
		}
		// next eviction victim is page 3 (clean), then page 1 (dirty)
		m.Fix(p, pg(5), false, false, PriorityOLTP)
		m.Unfix(pg(5))
		m.Fix(p, pg(6), false, false, PriorityOLTP)
		m.Unfix(pg(6))
		if h.writes != 1 {
			t.Errorf("dirty eviction writebacks=%d, want 1", h.writes)
		}
		// Page 6 reuses page 1's frame but was fixed clean: evicting it
		// (after pages 4 and 5) writes nothing.
		for i := int64(7); i <= 9; i++ {
			m.Fix(p, pg(i), false, false, PriorityOLTP)
			m.Unfix(pg(i))
		}
		if h.writes != 1 {
			t.Errorf("recycled frame stayed dirty: writebacks=%d, want 1", h.writes)
		}
	})
	k.RunAll()
	if m.Evictions() != 6 || m.DirtyEvictions() != 1 {
		t.Errorf("evictions=%d dirty=%d, want 6/1", m.Evictions(), m.DirtyEvictions())
	}
}

func TestFixWaitsWhenAllPinnedAndWakesOnUnfix(t *testing.T) {
	k := sim.NewKernel()
	h := &testHooks{}
	m := NewManager(k, "pe0", 2, h.hooks())
	var blockedAt, resumedAt sim.Time
	k.Spawn("holder", func(p *sim.Proc) {
		m.Fix(p, pg(1), false, false, PriorityOLTP)
		m.Fix(p, pg(2), false, false, PriorityOLTP)
		p.Wait(50 * sim.Millisecond)
		m.Unfix(pg(1))
		m.Unfix(pg(2))
	})
	k.SpawnAt(30*sim.Millisecond, "waiter", func(p *sim.Proc) {
		blockedAt = p.Now()
		m.Fix(p, pg(3), false, false, PriorityOLTP)
		resumedAt = p.Now()
		m.Unfix(pg(3))
	})
	k.RunAll()
	if blockedAt != 30*sim.Millisecond {
		t.Fatalf("waiter started at %v", blockedAt)
	}
	// holder unfixes at 70ms (two 10ms reads + 50ms), waiter then reads 10ms
	if resumedAt != 80*sim.Millisecond {
		t.Errorf("waiter resumed at %v, want 80ms", resumedAt)
	}
	if m.Waits() == 0 {
		t.Error("wait not counted")
	}
}

func TestSpaceAcquireFastPath(t *testing.T) {
	k := sim.NewKernel()
	h := &testHooks{}
	m := NewManager(k, "pe0", 10, h.hooks())
	k.Spawn("j", func(p *sim.Proc) {
		s := m.NewSpace("join", PriorityQuery, 2)
		got := s.Acquire(p, 6)
		if got != 6 {
			t.Errorf("granted %d, want 6", got)
		}
		if m.Reserved() != 6 || m.Avail() != 4 {
			t.Errorf("reserved=%d avail=%d", m.Reserved(), m.Avail())
		}
		s.Close()
		if m.Reserved() != 0 || m.Avail() != 10 {
			t.Errorf("after close reserved=%d avail=%d", m.Reserved(), m.Avail())
		}
	})
	k.RunAll()
}

func TestSpaceAcquireTakesWhatIsAvailable(t *testing.T) {
	k := sim.NewKernel()
	h := &testHooks{}
	m := NewManager(k, "pe0", 10, h.hooks())
	k.Spawn("j", func(p *sim.Proc) {
		s1 := m.NewSpace("j1", PriorityQuery, 2)
		if got := s1.Acquire(p, 7); got != 7 {
			t.Fatalf("j1 granted %d", got)
		}
		s2 := m.NewSpace("j2", PriorityQuery, 2)
		// only 3 available; desired 8 -> grant 3 (>= min 2)
		if got := s2.Acquire(p, 8); got != 3 {
			t.Errorf("j2 granted %d, want 3", got)
		}
	})
	k.RunAll()
}

func TestSpaceAcquireQueuesFCFSUntilMin(t *testing.T) {
	k := sim.NewKernel()
	h := &testHooks{}
	m := NewManager(k, "pe0", 10, h.hooks())
	var order []string
	k.Spawn("j1", func(p *sim.Proc) {
		s := m.NewSpace("j1", PriorityQuery, 2)
		s.Acquire(p, 10) // takes all 10
		p.Wait(20 * sim.Millisecond)
		s.Close()
	})
	k.SpawnAt(sim.Millisecond, "j2", func(p *sim.Proc) {
		s := m.NewSpace("j2", PriorityQuery, 4)
		got := s.Acquire(p, 4)
		order = append(order, "j2")
		if got != 4 {
			t.Errorf("j2 granted %d, want 4", got)
		}
		s.Close()
	})
	k.SpawnAt(2*sim.Millisecond, "j3", func(p *sim.Proc) {
		s := m.NewSpace("j3", PriorityQuery, 1)
		s.Acquire(p, 1)
		order = append(order, "j3")
		s.Close()
	})
	k.RunAll()
	if len(order) != 2 || order[0] != "j2" || order[1] != "j3" {
		t.Fatalf("memory queue order %v; want FCFS [j2 j3]", order)
	}
}

func TestSpaceAcquireReclaimsUnpinnedPages(t *testing.T) {
	k := sim.NewKernel()
	h := &testHooks{}
	m := NewManager(k, "pe0", 4, h.hooks())
	k.Spawn("p", func(p *sim.Proc) {
		for i := int64(1); i <= 4; i++ {
			m.Fix(p, pg(i), false, false, PriorityOLTP)
			m.Unfix(pg(i))
		}
		if m.Resident() != 4 || m.Avail() != 4 {
			t.Fatalf("resident=%d avail=%d", m.Resident(), m.Avail())
		}
		s := m.NewSpace("j", PriorityQuery, 3)
		if got := s.Acquire(p, 3); got != 3 {
			t.Fatalf("granted %d", got)
		}
		if m.Resident() > 1 {
			t.Errorf("resident=%d after reclaim, want <= 1", m.Resident())
		}
		s.Close()
	})
	k.RunAll()
}

func TestStealFromLowerPrioritySpace(t *testing.T) {
	k := sim.NewKernel()
	h := &testHooks{}
	m := NewManager(k, "pe0", 10, h.hooks())
	var stealAsked int
	k.Spawn("join", func(p *sim.Proc) {
		s := m.NewSpace("join", PriorityQuery, 2)
		s.Acquire(p, 10)
		s.SetStealHandler(func(need int) int {
			stealAsked += need
			give := 3 // flush one partition worth
			s.Release(give)
			return give
		})
		p.Wait(100 * sim.Millisecond)
		s.Close()
	})
	k.SpawnAt(10*sim.Millisecond, "oltp", func(p *sim.Proc) {
		m.Fix(p, pg(99), false, false, PriorityOLTP)
		m.Unfix(pg(99))
	})
	k.RunAll()
	if stealAsked == 0 {
		t.Fatal("steal handler never invoked")
	}
	if m.Steals() != 1 || m.StolenPages() != 3 {
		t.Errorf("steals=%d stolenPages=%d, want 1/3", m.Steals(), m.StolenPages())
	}
}

func TestStealRespectsMinAndPriority(t *testing.T) {
	k := sim.NewKernel()
	h := &testHooks{}
	m := NewManager(k, "pe0", 4, h.hooks())
	k.Spawn("join", func(p *sim.Proc) {
		s := m.NewSpace("join", PriorityQuery, 4)
		s.Acquire(p, 4) // at min: not stealable
		s.SetStealHandler(func(need int) int {
			t.Error("steal handler called on space at its minimum")
			return 0
		})
		p.Wait(30 * sim.Millisecond)
		s.Close()
	})
	var fixedAt sim.Time
	k.SpawnAt(5*sim.Millisecond, "oltp", func(p *sim.Proc) {
		m.Fix(p, pg(50), false, false, PriorityOLTP) // must wait for Close
		fixedAt = p.Now()
		m.Unfix(pg(50))
	})
	k.RunAll()
	if fixedAt < 30*sim.Millisecond {
		t.Errorf("OLTP fix completed at %v; should have waited for space close", fixedAt)
	}
}

func TestQueryCannotStealFromQuery(t *testing.T) {
	k := sim.NewKernel()
	h := &testHooks{}
	m := NewManager(k, "pe0", 4, h.hooks())
	stolen := false
	k.Spawn("join1", func(p *sim.Proc) {
		s := m.NewSpace("join1", PriorityQuery, 1)
		s.Acquire(p, 4)
		s.SetStealHandler(func(need int) int {
			stolen = true
			s.Release(need)
			return need
		})
		p.Wait(20 * sim.Millisecond)
		s.Close()
	})
	k.SpawnAt(sim.Millisecond, "join2-page", func(p *sim.Proc) {
		// equal priority: must wait, not steal
		m.Fix(p, pg(7), false, false, PriorityQuery)
		m.Unfix(pg(7))
	})
	k.RunAll()
	if stolen {
		t.Error("equal-priority requester stole frames")
	}
}

func TestTryGrowRespectsQueue(t *testing.T) {
	k := sim.NewKernel()
	h := &testHooks{}
	m := NewManager(k, "pe0", 10, h.hooks())
	k.Spawn("j1", func(p *sim.Proc) {
		s := m.NewSpace("j1", PriorityQuery, 2)
		s.Acquire(p, 8)
		p.Wait(10 * sim.Millisecond)
		// j2 is queued needing 4: growth must be denied
		if got := s.TryGrow(2); got != 0 {
			t.Errorf("TryGrow granted %d with queued waiter", got)
		}
		s.Release(6)
		p.Wait(10 * sim.Millisecond)
		s.Close()
	})
	k.SpawnAt(sim.Millisecond, "j2", func(p *sim.Proc) {
		s := m.NewSpace("j2", PriorityQuery, 4)
		s.Acquire(p, 4)
		s.Close()
	})
	k.RunAll()
}

func TestTryGrowGrantsWhenFree(t *testing.T) {
	k := sim.NewKernel()
	h := &testHooks{}
	m := NewManager(k, "pe0", 10, h.hooks())
	k.Spawn("j", func(p *sim.Proc) {
		s := m.NewSpace("j", PriorityQuery, 2)
		s.Acquire(p, 4)
		if got := s.TryGrow(3); got != 3 {
			t.Errorf("TryGrow granted %d, want 3", got)
		}
		if s.Pages() != 7 {
			t.Errorf("pages=%d, want 7", s.Pages())
		}
		s.Close()
	})
	k.RunAll()
}

func TestMeanUtilizationWindow(t *testing.T) {
	k := sim.NewKernel()
	h := &testHooks{}
	m := NewManager(k, "pe0", 10, h.hooks())
	k.Spawn("j", func(p *sim.Proc) {
		s := m.NewSpace("j", PriorityQuery, 5)
		s.Acquire(p, 5)
		p.Wait(100 * sim.Millisecond)
		s.Close()
	})
	k.Run(100 * sim.Millisecond)
	u := m.MeanUtilization(0, 0)
	if u < 0.49 || u > 0.51 {
		t.Errorf("mean utilization = %v, want ~0.5", u)
	}
}

func TestUnfixPanics(t *testing.T) {
	k := sim.NewKernel()
	h := &testHooks{}
	m := NewManager(k, "pe0", 4, h.hooks())
	defer func() {
		if recover() == nil {
			t.Error("unfix of non-resident page did not panic")
		}
	}()
	m.Unfix(pg(1))
}

func TestEvictDropsUnpinnedPage(t *testing.T) {
	k := sim.NewKernel()
	h := &testHooks{}
	m := NewManager(k, "pe0", 4, h.hooks())
	k.Spawn("p", func(p *sim.Proc) {
		m.Fix(p, pg(1), false, false, PriorityOLTP)
		if m.Evict(pg(1)) {
			t.Error("evicted a pinned page")
		}
		m.Unfix(pg(1))
		if !m.Evict(pg(1)) {
			t.Error("failed to evict unpinned page")
		}
		if m.Resident() != 0 {
			t.Errorf("resident=%d", m.Resident())
		}
	})
	k.RunAll()
}
