package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKernelEventOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(30*Millisecond, func() { got = append(got, 3) })
	k.At(10*Millisecond, func() { got = append(got, 1) })
	k.At(20*Millisecond, func() { got = append(got, 2) })
	k.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if k.Now() != 30*Millisecond {
		t.Fatalf("clock = %v, want 30ms", k.Now())
	}
}

func TestKernelTieBreakBySeq(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5*Millisecond, func() { got = append(got, i) })
	}
	k.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not in registration order: %v", got)
		}
	}
}

// TestKernelSameTimeOrderAcrossNowQueue pins the (time, seq) contract at
// the seam between the calendar queue and the same-instant FIFO: an event
// scheduled *for* time T from inside the first event *at* T goes to the
// now-FIFO, but a calendar event at T registered earlier (lower seq) must
// still fire before it.
func TestKernelSameTimeOrderAcrossNowQueue(t *testing.T) {
	k := NewKernel()
	var got []string
	const T = 10 * Millisecond
	k.At(T, func() {
		got = append(got, "cal1")
		k.At(k.Now(), func() {
			got = append(got, "now1")
			// Nested same-instant scheduling keeps FIFO order too.
			k.At(k.Now(), func() { got = append(got, "now2") })
		})
	})
	k.At(T, func() { got = append(got, "cal2") })
	k.RunAll()
	want := []string{"cal1", "cal2", "now1", "now2"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("same-time dispatch order %v, want %v", got, want)
		}
	}
}

// TestKernelUnparkFIFO: processes unparked at the same instant resume in
// unpark order (they ride the now-FIFO).
func TestKernelUnparkFIFO(t *testing.T) {
	k := NewKernel()
	var procs []*Proc
	var order []int64
	for i := 0; i < 5; i++ {
		p := k.Spawn("sleeper", func(p *Proc) {
			p.Park()
			order = append(order, p.ID())
		})
		procs = append(procs, p)
	}
	k.At(Millisecond, func() {
		// Wake in reverse spawn order; resumes must follow unpark order.
		for i := len(procs) - 1; i >= 0; i-- {
			procs[i].Unpark()
		}
	})
	k.RunAll()
	if len(order) != 5 {
		t.Fatalf("resumed %d procs, want 5", len(order))
	}
	for i := range order {
		if order[i] != int64(5-i) {
			t.Fatalf("resume order %v, want unpark (reverse-spawn) order", order)
		}
	}
}

// TestKernelHoldModelOrdering stresses the calendar queue with the hold
// model across all its regimes — same-instant events, wheel-bucket events
// and beyond-horizon overflow events — and requires a monotone clock and
// exact event accounting.
func TestKernelHoldModelOrdering(t *testing.T) {
	k := NewKernel()
	rng := rand.New(rand.NewSource(3))
	const population = 64
	fired, stop := 0, 200000
	var self func()
	self = func() {
		fired++
		if fired >= stop {
			return
		}
		// Offsets from 0 (now-FIFO) through mid-wheel to several times the
		// wheel horizon (overflow heap).
		switch rng.Intn(4) {
		case 0:
			k.At(k.Now(), self)
		case 1:
			k.After(Duration(rng.Intn(1000))*Nanosecond, self)
		case 2:
			k.After(Duration(rng.Intn(10))*Millisecond, self)
		default:
			k.After(Duration(rng.Intn(200))*Millisecond, self)
		}
	}
	for i := 0; i < population; i++ {
		k.At(Duration(rng.Intn(50))*Millisecond, self)
	}
	last := Time(-1)
	prev := 0
	for k.Pending() > 0 {
		if k.Now() < last {
			t.Fatalf("clock went backwards: %v after %v", k.Now(), last)
		}
		last = k.Now()
		k.Run(last + 10*Millisecond)
		if fired < prev {
			t.Fatalf("fired count decreased")
		}
		prev = fired
	}
	if fired < stop {
		t.Fatalf("fired %d events, want >= %d", fired, stop)
	}
}

func TestKernelRunUntilStopsAndResumes(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.At(10*Millisecond, func() { fired++ })
	k.At(20*Millisecond, func() { fired++ })
	k.Run(15 * Millisecond)
	if fired != 1 {
		t.Fatalf("fired=%d after first horizon, want 1", fired)
	}
	if k.Now() != 15*Millisecond {
		t.Fatalf("now=%v, want 15ms", k.Now())
	}
	k.Run(25 * Millisecond)
	if fired != 2 {
		t.Fatalf("fired=%d after second horizon, want 2", fired)
	}
}

func TestKernelRunUntilInclusive(t *testing.T) {
	k := NewKernel()
	fired := false
	k.At(10*Millisecond, func() { fired = true })
	k.Run(10 * Millisecond)
	if !fired {
		t.Fatal("event exactly at horizon did not fire")
	}
}

func TestKernelPastEventPanics(t *testing.T) {
	k := NewKernel()
	k.At(10*Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5*Millisecond, func() {})
	})
	k.RunAll()
}

func TestProcWaitAdvancesClock(t *testing.T) {
	k := NewKernel()
	var woke Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Wait(42 * Millisecond)
		woke = p.Now()
	})
	k.RunAll()
	if woke != 42*Millisecond {
		t.Fatalf("woke at %v, want 42ms", woke)
	}
	if k.Live() != 0 {
		t.Fatalf("live=%d after completion, want 0", k.Live())
	}
}

func TestProcWaitZeroIsNoop(t *testing.T) {
	k := NewKernel()
	ran := false
	k.Spawn("p", func(p *Proc) {
		p.Wait(0)
		ran = true
	})
	k.RunAll()
	if !ran {
		t.Fatal("process with zero wait did not complete")
	}
}

func TestSpawnWithinProcess(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("outer", func(p *Proc) {
		order = append(order, "outer-start")
		p.k.Spawn("inner", func(q *Proc) {
			order = append(order, "inner")
		})
		p.Wait(1 * Millisecond)
		order = append(order, "outer-end")
	})
	k.RunAll()
	want := []string{"outer-start", "inner", "outer-end"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSpawnAtFuture(t *testing.T) {
	k := NewKernel()
	var started Time
	k.SpawnAt(7*Millisecond, "late", func(p *Proc) { started = p.Now() })
	k.RunAll()
	if started != 7*Millisecond {
		t.Fatalf("started at %v, want 7ms", started)
	}
}

// TestDeterminism runs a small random process soup twice and requires
// identical traces: the kernel must be bit-reproducible for a fixed seed.
func TestDeterminism(t *testing.T) {
	trace := func(seed int64) []Time {
		k := NewKernel()
		srv := NewServer(k, "cpu", 2)
		rng := rand.New(rand.NewSource(seed))
		var out []Time
		for i := 0; i < 50; i++ {
			d := Duration(rng.Intn(1000)+1) * Microsecond
			start := Duration(rng.Intn(5000)) * Microsecond
			k.SpawnAt(start, "w", func(p *Proc) {
				srv.Use(p, d)
				out = append(out, p.Now())
			})
		}
		k.RunAll()
		return out
	}
	a, b := trace(7), trace(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if (1500 * Microsecond).Milliseconds() != 1.5 {
		t.Errorf("1500us = %v ms, want 1.5", (1500 * Microsecond).Milliseconds())
	}
	if FromMillis(2.5) != 2500*Microsecond {
		t.Errorf("FromMillis(2.5) = %v", FromMillis(2.5))
	}
	if FromSeconds(0.001) != Millisecond {
		t.Errorf("FromSeconds(0.001) = %v", FromSeconds(0.001))
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Errorf("2s = %v s", (2 * Second).Seconds())
	}
}

func TestScale(t *testing.T) {
	if Scale(10*Millisecond, 0.5) != 5*Millisecond {
		t.Errorf("Scale(10ms, .5) = %v", Scale(10*Millisecond, 0.5))
	}
	if Scale(3, 1.0/3.0) != 1 {
		t.Errorf("Scale rounds wrong: %v", Scale(3, 1.0/3.0))
	}
	defer func() {
		if recover() == nil {
			t.Error("negative scale did not panic")
		}
	}()
	Scale(1, -1)
}

// Property: for any set of event offsets, events fire in sorted order and
// the final clock equals the maximum offset.
func TestQuickEventOrdering(t *testing.T) {
	f := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		k := NewKernel()
		var fired []Time
		var max Time
		for _, o := range offsets {
			at := Time(o) * Microsecond
			if at > max {
				max = at
			}
			k.At(at, func() { fired = append(fired, k.Now()) })
		}
		k.RunAll()
		if k.Now() != max {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
