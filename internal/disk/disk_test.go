package disk

import (
	"testing"
	"testing/quick"

	"dynlb/internal/sim"
)

func newTestSub(k *sim.Kernel, ndisks int) *Subsystem {
	return New(k, "pe0", ndisks, Defaults())
}

func TestReadMissTiming(t *testing.T) {
	k := sim.NewKernel()
	s := newTestSub(k, 1)
	var took sim.Time
	k.Spawn("r", func(p *sim.Proc) {
		start := p.Now()
		hit := s.Read(p, 0, PageID{Space: 1, Page: 0}, false)
		took = p.Now() - start
		if hit {
			t.Error("cold read reported cache hit")
		}
	})
	k.RunAll()
	// ctrl 1ms + access (15 + 1*1)ms + transfer 0.4ms = 17.4ms
	want := sim.FromMillis(17.4)
	if took != want {
		t.Errorf("random read took %v, want %v", took, want)
	}
}

func TestSequentialPrefetchTimingAndCaching(t *testing.T) {
	k := sim.NewKernel()
	s := newTestSub(k, 1)
	var first, rest sim.Time
	k.Spawn("r", func(p *sim.Proc) {
		start := p.Now()
		s.Read(p, 0, PageID{Space: 1, Page: 0}, true)
		first = p.Now() - start
		start = p.Now()
		for pg := int64(1); pg < 4; pg++ {
			if !s.Read(p, 0, PageID{Space: 1, Page: pg}, true) {
				t.Errorf("page %d not served from prefetch cache", pg)
			}
		}
		rest = p.Now() - start
	})
	k.RunAll()
	// first: ctrl 1 + access (15+4)ms + transfer 0.4 = 20.4ms
	if first != sim.FromMillis(20.4) {
		t.Errorf("prefetch read took %v, want 20.4ms", first)
	}
	// cached: 3 * (1 + 0.4)ms = 4.2ms
	if rest != sim.FromMillis(4.2) {
		t.Errorf("cached reads took %v, want 4.2ms", rest)
	}
	if s.PhysReads() != 1 {
		t.Errorf("phys reads = %d, want 1", s.PhysReads())
	}
	if s.CacheHits() != 3 {
		t.Errorf("cache hits = %d, want 3", s.CacheHits())
	}
}

func TestWriteTiming(t *testing.T) {
	k := sim.NewKernel()
	s := newTestSub(k, 1)
	var took sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		s.Write(p, 0, PageID{Space: 2, Page: 7})
		took = p.Now() - start
	})
	k.RunAll()
	if took != sim.FromMillis(17.4) {
		t.Errorf("write took %v, want 17.4ms", took)
	}
	if s.Writes() != 1 {
		t.Errorf("writes = %d", s.Writes())
	}
}

func TestWrittenPageIsCached(t *testing.T) {
	k := sim.NewKernel()
	s := newTestSub(k, 1)
	k.Spawn("rw", func(p *sim.Proc) {
		pg := PageID{Space: 3, Page: 1}
		s.Write(p, 0, pg)
		if !s.Read(p, 0, pg, false) {
			t.Error("read after write missed the cache")
		}
	})
	k.RunAll()
}

func TestDisksQueueIndependently(t *testing.T) {
	k := sim.NewKernel()
	s := newTestSub(k, 2)
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("r", func(p *sim.Proc) {
			s.Read(p, i, PageID{Space: int64(10 + i), Page: 0}, false)
			done[i] = p.Now()
		})
	}
	k.RunAll()
	// The two reads share the controller (1ms serial) but use distinct
	// disks, so completion times differ by about the controller slot, not
	// by a full disk access.
	diff := done[1] - done[0]
	if diff < 0 {
		diff = -diff
	}
	if diff > sim.FromMillis(2) {
		t.Errorf("parallel disk reads completed %v apart; disks appear serialized", diff)
	}
}

func TestSameDiskSerializes(t *testing.T) {
	k := sim.NewKernel()
	s := newTestSub(k, 1)
	var last sim.Time
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("r", func(p *sim.Proc) {
			s.Read(p, 0, PageID{Space: int64(20 + i), Page: 0}, false)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	k.RunAll()
	// two misses on one disk: >= 2*16ms of arm time
	if last < sim.FromMillis(32) {
		t.Errorf("two reads on one disk finished at %v; want >= 32ms", last)
	}
}

func TestCacheEviction(t *testing.T) {
	k := sim.NewKernel()
	p := Defaults()
	p.CacheSize = 4
	p.Prefetch = 1
	s := New(k, "pe0", 1, p)
	k.Spawn("r", func(pr *sim.Proc) {
		for pg := int64(0); pg < 5; pg++ { // fills cache past capacity
			s.Read(pr, 0, PageID{Space: 1, Page: pg}, false)
		}
		// page 0 is the LRU victim: must miss
		if s.Read(pr, 0, PageID{Space: 1, Page: 0}, false) {
			t.Error("evicted page still in cache")
		}
		// page 4 is recent: must hit
		if !s.Read(pr, 0, PageID{Space: 1, Page: 4}, false) {
			t.Error("recent page evicted")
		}
	})
	k.RunAll()
}

func TestCacheDisabled(t *testing.T) {
	k := sim.NewKernel()
	p := Defaults()
	p.CacheSize = 0
	s := New(k, "pe0", 1, p)
	k.Spawn("r", func(pr *sim.Proc) {
		pg := PageID{Space: 1, Page: 0}
		s.Read(pr, 0, pg, false)
		if s.Read(pr, 0, pg, false) {
			t.Error("cache hit with caching disabled")
		}
	})
	k.RunAll()
}

func TestDiskForStable(t *testing.T) {
	k := sim.NewKernel()
	s := newTestSub(k, 10)
	for space := int64(0); space < 100; space++ {
		a, b := s.DiskFor(space), s.DiskFor(space)
		if a != b {
			t.Fatalf("DiskFor(%d) unstable: %d vs %d", space, a, b)
		}
		if a < 0 || a >= 10 {
			t.Fatalf("DiskFor(%d) = %d out of range", space, a)
		}
	}
	if s.DiskFor(-3) < 0 {
		t.Error("DiskFor negative space out of range")
	}
}

func TestUtilizationWindow(t *testing.T) {
	k := sim.NewKernel()
	s := newTestSub(k, 1)
	k.Spawn("r", func(p *sim.Proc) {
		s.Read(p, 0, PageID{Space: 1, Page: 0}, false)
	})
	k.Run(sim.FromMillis(32)) // read busies the disk 16ms of 32ms => 50%
	u := s.Utilization()
	if u < 0.45 || u > 0.55 {
		t.Errorf("disk utilization = %v, want ~0.5", u)
	}
}

// TestWriteAsyncDoesNotBlock: WriteAsync returns at once, and writes issued
// at one instant are performed in call order, each to its own disk and page.
func TestWriteAsyncDoesNotBlock(t *testing.T) {
	k := sim.NewKernel()
	params := Defaults()
	params.CacheSize = 2
	s := New(k, "pe0", 3, params)
	writes := []struct {
		dsk int
		pg  PageID
	}{{0, PageID{Space: 5, Page: 0}}, {2, PageID{Space: 5, Page: 1}}, {1, PageID{Space: 5, Page: 2}}}
	var elapsed sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		for _, w := range writes {
			s.WriteAsync(w.dsk, w.pg)
		}
		elapsed = p.Now() - start
	})
	end := k.RunAll()
	if elapsed != 0 {
		t.Errorf("WriteAsync blocked caller for %v", elapsed)
	}
	if s.Writes() != 3 {
		t.Errorf("async writes not performed: writes=%d", s.Writes())
	}
	// The controller starts the writes 1 ms apart in call order and the
	// three disks overlap, so the last transfer ends at 2 + 1 + 16 + 0.4 ms.
	if end != sim.FromMillis(19.4) {
		t.Errorf("async writes ended at %v, want 19.4ms (one disk each, in call order)", end)
	}
	for d := range s.disks {
		if busy := s.disks[d].BusyIntegral(); busy != float64(16*sim.Millisecond) {
			t.Errorf("disk %d busy %v ns, want one 16 ms write", d, busy)
		}
	}
	// The two-page cache keeps the last two pages written.
	for i, w := range writes {
		if cached := s.cache.get(w.pg); cached != (i > 0) {
			t.Errorf("page %v cached=%v after writes in call order", w.pg, cached)
		}
	}
}

func TestWriteRunTimingAndCaching(t *testing.T) {
	k := sim.NewKernel()
	s := newTestSub(k, 1)
	var took sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		s.WriteRun(p, 0, PageID{Space: 9, Page: 0}, 4)
		took = p.Now() - start
		// run pages are cached for the read-back
		for i := int64(0); i < 4; i++ {
			if !s.Read(p, 0, PageID{Space: 9, Page: i}, true) {
				t.Errorf("page %d of written run not cached", i)
			}
		}
	})
	k.RunAll()
	// ctrl 4ms + access (15+4)ms + transfer 1.6ms = 24.6ms
	if took != sim.FromMillis(24.6) {
		t.Errorf("4-page write run took %v, want 24.6ms", took)
	}
	if s.Writes() != 4 {
		t.Errorf("writes=%d, want 4", s.Writes())
	}
}

func TestWriteRunZeroPagesNoop(t *testing.T) {
	k := sim.NewKernel()
	s := newTestSub(k, 1)
	k.Spawn("w", func(p *sim.Proc) {
		s.WriteRun(p, 0, PageID{Space: 9, Page: 0}, 0)
	})
	if end := k.RunAll(); end != 0 {
		t.Errorf("zero-page run took %v", end)
	}
	if s.Writes() != 0 {
		t.Errorf("writes=%d", s.Writes())
	}
}

// Property: LRU never exceeds capacity and always contains the most
// recently touched page.
func TestQuickLRU(t *testing.T) {
	f := func(ops []uint8) bool {
		l := newLRU(8)
		var lastPut *PageID
		for _, op := range ops {
			id := PageID{Space: 1, Page: int64(op % 32)}
			l.put(id)
			lastPut = &id
			if l.len() > 8 {
				return false
			}
		}
		if lastPut != nil && !l.get(*lastPut) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
