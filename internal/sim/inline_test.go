package sim

import (
	"math/rand"
	"testing"
)

// soupTrace runs a randomized mix of every dispatch shape the kernel has —
// timed holds, contended server queues, store grants, mailbox wake-ups and
// plain fn timers — and records (time, value) at every observation point.
// It is the reference workload for fast-path equivalence: the continuation
// fast path must dispatch the identical event sequence the parked path
// does.
func soupTrace(seed int64, inline bool) []Time {
	out, _ := soupRun(seed, inline)
	return out
}

// soupRun is soupTrace also returning the kernel's counters after the run.
func soupRun(seed int64, inline bool) ([]Time, KernelStats) {
	k := NewKernel()
	k.SetInlineDispatch(inline)
	srv := NewServer(k, "cpu", 2)
	st := NewStore(k, "mem", 3)
	mail := NewChan[int](k, "mail")
	rng := rand.New(rand.NewSource(seed))
	var out []Time

	for i := 0; i < 40; i++ {
		d := Duration(rng.Intn(900)+1) * Microsecond
		start := Duration(rng.Intn(4000)) * Microsecond
		n := rng.Intn(3) + 1
		k.SpawnAt(start, "w", func(p *Proc) {
			srv.Use(p, d)
			out = append(out, p.Now())
			st.Get(p, n)
			p.Wait(d / 2)
			st.Put(n)
			mail.Put(i)
			out = append(out, p.Now())
		})
	}
	k.Spawn("reader", func(p *Proc) {
		for j := 0; j < 40; j++ {
			v, ok := mail.Get(p)
			if !ok {
				return
			}
			out = append(out, p.Now()+Time(v))
		}
	})
	// fn timers interleaved with the process soup.
	for i := 0; i < 20; i++ {
		at := Duration(rng.Intn(6000)) * Microsecond
		k.At(at, func() { out = append(out, k.Now()) })
	}
	// Run in horizon slices so the drain-to-horizon handoff is exercised
	// too, not just the open-ended RunAll path.
	for h := 500 * Microsecond; k.Pending() > 0; h += 500 * Microsecond {
		k.Run(h)
	}
	return out, k.Stats()
}

// TestInlineDispatchMatchesParked pins the tentpole contract: with the
// continuation fast path on or off, the dispatch order — and therefore
// every observable simulation value — is bit-identical.
func TestInlineDispatchMatchesParked(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		fast, parked := soupTrace(seed, true), soupTrace(seed, false)
		if len(fast) != len(parked) {
			t.Fatalf("seed %d: trace lengths differ: inline %d vs parked %d", seed, len(fast), len(parked))
		}
		for i := range fast {
			if fast[i] != parked[i] {
				t.Fatalf("seed %d: traces diverge at %d: inline %v vs parked %v", seed, i, fast[i], parked[i])
			}
		}
	}
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

// TestSetInlineDispatchDuringRunPanics: the knob is a construction-time
// choice; flipping it mid-run would tear the dispatch invariants.
func TestSetInlineDispatchDuringRunPanics(t *testing.T) {
	k := NewKernel()
	k.At(Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("SetInlineDispatch during Run did not panic")
			}
		}()
		k.SetInlineDispatch(false)
	})
	k.RunAll()
}
