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

// TestKernelStatsCalendar verifies the calendar's observability counters:
// events near and far ahead (beyond 33.6 ms, where a bucketed calendar
// would spill into an overflow tier) are all pending in the one heap,
// dispatch in time order and are each counted once, and OverflowPushes
// reads 0 throughout.
func TestKernelStatsCalendar(t *testing.T) {
	k := NewKernel()
	const far = 40 * Millisecond
	var order []Time
	// Near and far events interleaved, each scheduled latest-first within
	// its half, so time order is not insertion order.
	for i := 8; i >= 1; i-- {
		near, beyond := Time(i)*Millisecond, far+Time(i)*Millisecond
		k.At(near, func() { order = append(order, near) })
		k.At(beyond, func() { order = append(order, beyond) })
	}
	s := k.Stats()
	if p := k.Pending(); p != 16 {
		t.Errorf("Pending = %d, want 16", p)
	}
	if s.Dispatched != 0 || s.OverflowPushes != 0 {
		t.Errorf("before run: Dispatched/OverflowPushes = %d/%d, want 0/0", s.Dispatched, s.OverflowPushes)
	}
	k.RunAll()
	s = k.Stats()
	if p := k.Pending(); p != 0 {
		t.Errorf("residual events: %d pending", p)
	}
	if s.Dispatched != 16 {
		t.Errorf("Dispatched = %d, want 16", s.Dispatched)
	}
	if s.OverflowPushes != 0 {
		t.Errorf("OverflowPushes = %d, want 0", s.OverflowPushes)
	}
	if len(order) != 16 {
		t.Fatalf("fired %d events, want 16", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("event for %v fired after the one for %v", order[i], order[i-1])
		}
	}
}
