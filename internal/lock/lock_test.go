package lock

import (
	"testing"

	"dynlb/internal/sim"
)

func key(i int64) Key { return Key{Space: 1, Item: i} }

func TestSharedLocksCompatible(t *testing.T) {
	k := sim.NewKernel()
	tbl := NewTable(k, "pe0")
	var grants []sim.Time
	for i := 0; i < 3; i++ {
		txn := TxnID(i + 1)
		k.Spawn("r", func(p *sim.Proc) {
			if err := tbl.Lock(p, txn, key(7), Shared); err != nil {
				t.Errorf("txn %d: %v", txn, err)
			}
			grants = append(grants, p.Now())
			p.Wait(10 * sim.Millisecond)
			tbl.ReleaseAll(txn)
		})
	}
	k.RunAll()
	for _, g := range grants {
		if g != 0 {
			t.Fatalf("shared lock delayed: grants at %v", grants)
		}
	}
}

func TestExclusiveBlocksShared(t *testing.T) {
	k := sim.NewKernel()
	tbl := NewTable(k, "pe0")
	var readerAt sim.Time
	k.Spawn("writer", func(p *sim.Proc) {
		tbl.Lock(p, 1, key(5), Exclusive)
		p.Wait(20 * sim.Millisecond)
		tbl.ReleaseAll(1)
	})
	k.SpawnAt(sim.Millisecond, "reader", func(p *sim.Proc) {
		tbl.Lock(p, 2, key(5), Shared)
		readerAt = p.Now()
		tbl.ReleaseAll(2)
	})
	k.RunAll()
	if readerAt != 20*sim.Millisecond {
		t.Errorf("reader granted at %v, want 20ms", readerAt)
	}
	if tbl.Waits() != 1 {
		t.Errorf("waits=%d", tbl.Waits())
	}
}

func TestSharedBlocksExclusiveFCFS(t *testing.T) {
	k := sim.NewKernel()
	tbl := NewTable(k, "pe0")
	var order []TxnID
	k.Spawn("reader", func(p *sim.Proc) {
		tbl.Lock(p, 1, key(5), Shared)
		p.Wait(10 * sim.Millisecond)
		tbl.ReleaseAll(1)
	})
	k.SpawnAt(sim.Millisecond, "writer", func(p *sim.Proc) {
		tbl.Lock(p, 2, key(5), Exclusive)
		order = append(order, 2)
		tbl.ReleaseAll(2)
	})
	k.SpawnAt(2*sim.Millisecond, "reader2", func(p *sim.Proc) {
		// Arrives after the writer: FCFS means it waits behind the writer
		// even though it would be compatible with the current holder.
		tbl.Lock(p, 3, key(5), Shared)
		order = append(order, 3)
		tbl.ReleaseAll(3)
	})
	k.RunAll()
	if len(order) != 2 || order[0] != 2 || order[1] != 3 {
		t.Fatalf("grant order %v, want [2 3]", order)
	}
}

func TestReentrantLockIsNoop(t *testing.T) {
	k := sim.NewKernel()
	tbl := NewTable(k, "pe0")
	k.Spawn("txn", func(p *sim.Proc) {
		tbl.Lock(p, 1, key(3), Shared)
		tbl.Lock(p, 1, key(3), Shared)    // held: no-op
		tbl.Lock(p, 1, key(3), Exclusive) // sole holder: instant upgrade
		tbl.Lock(p, 1, key(3), Shared)    // X covers S: no-op
		tbl.ReleaseAll(1)
	})
	end := k.RunAll()
	if end != 0 {
		t.Errorf("reentrant locking blocked until %v", end)
	}
}

func TestUpgradeWaitsForOtherReaders(t *testing.T) {
	k := sim.NewKernel()
	tbl := NewTable(k, "pe0")
	var upgradedAt sim.Time
	k.Spawn("other-reader", func(p *sim.Proc) {
		tbl.Lock(p, 1, key(9), Shared)
		p.Wait(15 * sim.Millisecond)
		tbl.ReleaseAll(1)
	})
	k.SpawnAt(sim.Millisecond, "upgrader", func(p *sim.Proc) {
		tbl.Lock(p, 2, key(9), Shared)
		if err := tbl.Lock(p, 2, key(9), Exclusive); err != nil {
			t.Errorf("upgrade: %v", err)
		}
		upgradedAt = p.Now()
		tbl.ReleaseAll(2)
	})
	k.RunAll()
	if upgradedAt != 15*sim.Millisecond {
		t.Errorf("upgrade granted at %v, want 15ms", upgradedAt)
	}
}

func TestDeadlockDetectionAbortsYoungest(t *testing.T) {
	k := sim.NewKernel()
	tbl := NewTable(k, "pe0")
	det := NewDetector(k, 10*sim.Millisecond)
	det.Register(tbl)

	var abortedTxn TxnID
	completed := 0
	// txn 1: lock A then B; txn 2: lock B then A -> deadlock.
	k.Spawn("t1", func(p *sim.Proc) {
		tbl.Lock(p, 1, key(1), Exclusive)
		p.Wait(2 * sim.Millisecond)
		if err := tbl.Lock(p, 1, key(2), Exclusive); err != nil {
			abortedTxn = 1
			tbl.ReleaseAll(1)
			return
		}
		completed++
		tbl.ReleaseAll(1)
	})
	k.Spawn("t2", func(p *sim.Proc) {
		tbl.Lock(p, 2, key(2), Exclusive)
		p.Wait(2 * sim.Millisecond)
		if err := tbl.Lock(p, 2, key(1), Exclusive); err != nil {
			abortedTxn = 2
			tbl.ReleaseAll(2)
			return
		}
		completed++
		tbl.ReleaseAll(2)
	})
	k.Spawn("scan", func(p *sim.Proc) {
		p.Wait(10 * sim.Millisecond)
		det.ScanOnce()
	})
	k.RunAll()
	if abortedTxn != 2 {
		t.Errorf("aborted txn %d, want 2 (youngest)", abortedTxn)
	}
	if completed != 1 {
		t.Errorf("completed=%d, want 1 (survivor finishes)", completed)
	}
	if det.Victims() != 1 {
		t.Errorf("victims=%d", det.Victims())
	}
}

func TestDetectorNoFalsePositives(t *testing.T) {
	k := sim.NewKernel()
	tbl := NewTable(k, "pe0")
	det := NewDetector(k, sim.Millisecond)
	det.Register(tbl)
	k.Spawn("holder", func(p *sim.Proc) {
		tbl.Lock(p, 1, key(1), Exclusive)
		p.Wait(20 * sim.Millisecond)
		tbl.ReleaseAll(1)
	})
	k.SpawnAt(sim.Microsecond, "waiter", func(p *sim.Proc) {
		if err := tbl.Lock(p, 2, key(1), Exclusive); err != nil {
			t.Errorf("non-deadlocked waiter aborted: %v", err)
		}
		tbl.ReleaseAll(2)
	})
	k.Spawn("scan", func(p *sim.Proc) {
		for i := 0; i < 15; i++ {
			p.Wait(sim.Millisecond)
			if v := det.ScanOnce(); len(v) > 0 {
				t.Errorf("false positive victims %v", v)
			}
		}
	})
	k.RunAll()
}

func TestDeadlockAcrossTables(t *testing.T) {
	k := sim.NewKernel()
	tbl0 := NewTable(k, "pe0")
	tbl1 := NewTable(k, "pe1")
	det := NewDetector(k, 5*sim.Millisecond)
	det.Register(tbl0)
	det.Register(tbl1)
	aborted := 0
	k.Spawn("t1", func(p *sim.Proc) {
		tbl0.Lock(p, 1, key(1), Exclusive)
		p.Wait(sim.Millisecond)
		if err := tbl1.Lock(p, 1, key(1), Exclusive); err != nil {
			aborted++
			tbl0.ReleaseAll(1)
			tbl1.ReleaseAll(1)
		}
	})
	k.Spawn("t2", func(p *sim.Proc) {
		tbl1.Lock(p, 2, key(1), Exclusive)
		p.Wait(sim.Millisecond)
		if err := tbl0.Lock(p, 2, key(1), Exclusive); err != nil {
			aborted++
			tbl0.ReleaseAll(2)
			tbl1.ReleaseAll(2)
		}
	})
	k.Spawn("scan", func(p *sim.Proc) {
		p.Wait(5 * sim.Millisecond)
		det.ScanOnce()
	})
	k.RunAll()
	if aborted != 1 {
		t.Errorf("aborted=%d, want exactly 1 (distributed deadlock resolved)", aborted)
	}
	if k.Blocked() != 0 {
		t.Errorf("blocked=%d at end; deadlock not fully resolved", k.Blocked())
	}
}

func TestDetectorStartStop(t *testing.T) {
	k := sim.NewKernel()
	tbl := NewTable(k, "pe0")
	det := NewDetector(k, 2*sim.Millisecond)
	det.Register(tbl)
	det.Start()
	k.Spawn("stopper", func(p *sim.Proc) {
		p.Wait(10 * sim.Millisecond)
		det.Stop()
	})
	k.RunAll()
	if k.Live() != 0 {
		t.Errorf("detector process still live after Stop")
	}
}

func TestUnlockUnheldPanics(t *testing.T) {
	k := sim.NewKernel()
	tbl := NewTable(k, "pe0")
	defer func() {
		if recover() == nil {
			t.Error("unlock of unheld key did not panic")
		}
	}()
	tbl.Unlock(1, key(1))
}

// TestAbortWakeOrderDeterministic pins the wake-up order of deadlock
// resolution: Abort must grant the victim's released locks and abort its
// queued requests in sorted key order, not lock-table map order — with 17
// parked processes woken in one Abort call, map iteration would scramble
// the event sequence (and therefore the whole simulation) on every run.
func TestAbortWakeOrderDeterministic(t *testing.T) {
	k := sim.NewKernel()
	tbl := NewTable(k, "pe0")
	const held = 16
	var order []int64

	// txn 50 holds key 21, which the victim will queue on.
	k.Spawn("blocker", func(p *sim.Proc) {
		tbl.Lock(p, 50, key(21), Exclusive)
		p.Wait(10 * sim.Millisecond)
		tbl.ReleaseAll(50)
	})
	// The victim (txn 99) holds keys 1..16 and waits on key 21.
	k.Spawn("victim", func(p *sim.Proc) {
		for i := int64(1); i <= held; i++ {
			tbl.Lock(p, 99, key(i), Exclusive)
		}
		if err := tbl.Lock(p, 99, key(21), Exclusive); err == nil {
			t.Error("victim lock on key 21 granted, want ErrDeadlock")
		}
		order = append(order, 21)
		tbl.ReleaseAll(99)
	})
	// One waiter per held key, queued behind the victim.
	for i := int64(1); i <= held; i++ {
		k.SpawnAt(sim.Millisecond, "waiter", func(p *sim.Proc) {
			if err := tbl.Lock(p, TxnID(i), key(i), Exclusive); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order = append(order, i)
			tbl.ReleaseAll(TxnID(i))
		})
	}
	k.At(2*sim.Millisecond, func() { tbl.Abort(99) })
	k.RunAll()

	want := make([]int64, 0, held+1)
	for i := int64(1); i <= held; i++ {
		want = append(want, i)
	}
	want = append(want, 21)
	if len(order) != len(want) {
		t.Fatalf("woke %d processes, want %d (order %v)", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order %v, want %v", order, want)
		}
	}
}

// TestTableForgetsReleasedKeys: once every transaction has finished — after
// contention, an S→X upgrade and a deadlock abort — the table remembers no
// key and no per-transaction key list. A table that kept idle entries would
// grow with every tuple ever locked, and the detector's WaitsFor walks them
// all.
func TestTableForgetsReleasedKeys(t *testing.T) {
	k := sim.NewKernel()
	tbl := NewTable(k, "pe0")
	det := NewDetector(k, 5*sim.Millisecond)
	det.Register(tbl)
	var upgradedAt sim.Time
	// txn 1 and 2 share key 1; txn 1 upgrades once txn 2 commits.
	k.Spawn("upgrader", func(p *sim.Proc) {
		tbl.Lock(p, 1, key(1), Shared)
		p.Wait(sim.Millisecond)
		if err := tbl.Lock(p, 1, key(1), Exclusive); err != nil {
			t.Errorf("upgrade: %v", err)
		}
		upgradedAt = p.Now()
		p.Wait(sim.Millisecond)
		tbl.ReleaseAll(1)
	})
	k.Spawn("reader", func(p *sim.Proc) {
		tbl.Lock(p, 2, key(1), Shared)
		p.Wait(3 * sim.Millisecond)
		tbl.ReleaseAll(2)
	})
	// txn 3 queues for key 1 behind both readers and the upgrade.
	k.SpawnAt(sim.Microsecond, "writer", func(p *sim.Proc) {
		if err := tbl.Lock(p, 3, key(1), Exclusive); err != nil {
			t.Errorf("writer: %v", err)
		}
		tbl.ReleaseAll(3)
	})
	// txn 4 and 5 deadlock on keys 2 and 3; the detector aborts txn 5.
	for _, d := range []struct {
		txn         TxnID
		first, then int64
	}{{4, 2, 3}, {5, 3, 2}} {
		k.Spawn("deadlocker", func(p *sim.Proc) {
			tbl.Lock(p, d.txn, key(d.first), Exclusive)
			p.Wait(sim.Millisecond)
			if err := tbl.Lock(p, d.txn, key(d.then), Exclusive); err != nil && d.txn != 5 {
				t.Errorf("txn %d aborted, want txn 5", d.txn)
			}
			tbl.ReleaseAll(d.txn)
		})
	}
	k.Spawn("scan", func(p *sim.Proc) {
		p.Wait(5 * sim.Millisecond)
		det.ScanOnce()
	})
	k.RunAll()
	if upgradedAt != 3*sim.Millisecond {
		t.Errorf("upgrade granted at %v, want 3ms", upgradedAt)
	}
	if det.Victims() != 1 || tbl.Waits() != 4 {
		t.Errorf("victims=%d waits=%d, want 1 and 4", det.Victims(), tbl.Waits())
	}
	if len(tbl.entries) != 0 || len(tbl.held) != 0 {
		t.Errorf("table still remembers %d keys and %d transactions", len(tbl.entries), len(tbl.held))
	}
}

// TestLockTableZeroAllocs: once the table's free lists have filled, an
// uncontended transaction — four exclusive tuple locks, then commit —
// allocates nothing. This is the lock-table share of an OLTP transaction.
func TestLockTableZeroAllocs(t *testing.T) {
	tbl := NewTable(sim.NewKernel(), "pe0")
	txn := TxnID(0)
	cycle := func() {
		txn++
		for i := int64(0); i < 4; i++ {
			// Uncontended requests never park, so no process is needed.
			if err := tbl.Lock(nil, txn, key(int64(txn)*4+i), Exclusive); err != nil {
				t.Fatal(err)
			}
		}
		tbl.ReleaseAll(txn)
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Errorf("%.2f allocs per Lock×4 + ReleaseAll, want 0", avg)
	}
}
