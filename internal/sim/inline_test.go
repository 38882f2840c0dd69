package sim

import (
	"math/rand"
	"testing"
)

// soupRun runs a randomized mix of every dispatch shape the kernel has —
// timed holds, contended server queues, store grants, mailbox wake-ups and
// plain fn timers — and returns the kernel's counters after the run
// (pinned by TestKernelCountersPinned).
func soupRun(seed int64) KernelStats {
	k := NewKernel()
	srv := NewServer(k, "cpu", 2)
	st := NewStore(k, "mem", 3)
	mail := NewChan[int](k, "mail")
	rng := rand.New(rand.NewSource(seed))

	for i := 0; i < 40; i++ {
		d := Duration(rng.Intn(900)+1) * Microsecond
		start := Duration(rng.Intn(4000)) * Microsecond
		n := rng.Intn(3) + 1
		k.SpawnAt(start, "w", func(p *Proc) {
			srv.Use(p, d)
			st.Get(p, n)
			p.Wait(d / 2)
			st.Put(n)
			mail.Put(i)
		})
	}
	k.Spawn("reader", func(p *Proc) {
		for j := 0; j < 40; j++ {
			if _, ok := mail.Get(p); !ok {
				return
			}
		}
	})
	// fn timers interleaved with the process soup.
	for i := 0; i < 20; i++ {
		k.At(Duration(rng.Intn(6000))*Microsecond, func() {})
	}
	// Run in horizon slices so the drain-to-horizon handoff is exercised
	// too, not just the open-ended RunAll path.
	for h := 500 * Microsecond; k.Pending() > 0; h += 500 * Microsecond {
		k.Run(h)
	}
	return k.Stats()
}

// TestInlineWaitNoSwitch verifies the fast path actually takes effect: an
// undisturbed waiter resolves every Wait in-context, so the kernel records
// inline wakes and only the spawn handoff.
func TestInlineWaitNoSwitch(t *testing.T) {
	k := NewKernel()
	const waits = 1000
	k.Spawn("waiter", func(p *Proc) {
		for i := 0; i < waits; i++ {
			p.Wait(Microsecond)
		}
	})
	k.RunAll()
	s := k.Stats()
	if s.InlineWakes != waits {
		t.Errorf("InlineWakes = %d, want %d", s.InlineWakes, waits)
	}
	if s.Handoffs != 1 { // the spawn start event only
		t.Errorf("Handoffs = %d, want 1 (spawn only)", s.Handoffs)
	}
	if s.Dispatched != waits+1 {
		t.Errorf("Dispatched = %d, want %d", s.Dispatched, waits+1)
	}
}

// TestKernelStatsCalendar verifies the calendar-queue observability
// counters: events beyond the wheel horizon land in the overflow heap and
// migrate back as the cursor advances.
func TestKernelStatsCalendar(t *testing.T) {
	k := NewKernel()
	const horizon = Time(calBuckets) << calShift // wheel span from time 0
	// Half inside the wheel, half far beyond it.
	for i := 0; i < 8; i++ {
		k.At(Time(i+1)*Millisecond, func() {})
		k.At(horizon+Time(i+1)*Millisecond, func() {})
	}
	s := k.Stats()
	if s.OverflowPushes != 8 || s.OverflowLen != 8 {
		t.Errorf("overflow pushes/len = %d/%d, want 8/8", s.OverflowPushes, s.OverflowLen)
	}
	if s.OverflowPeak != 8 {
		t.Errorf("OverflowPeak = %d, want 8", s.OverflowPeak)
	}
	if s.WheelLen != 8 {
		t.Errorf("WheelLen = %d, want 8", s.WheelLen)
	}
	k.RunAll()
	s = k.Stats()
	if s.Migrations != 8 {
		t.Errorf("Migrations = %d, want 8", s.Migrations)
	}
	if s.OverflowLen != 0 || s.WheelLen != 0 {
		t.Errorf("residual events: overflow %d wheel %d", s.OverflowLen, s.WheelLen)
	}
	if s.Dispatched != 16 {
		t.Errorf("Dispatched = %d, want 16", s.Dispatched)
	}
}
