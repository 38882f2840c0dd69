package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// modelTrace is the reference workload for process-model equivalence: a
// randomized mix of spawned workers (timed holds on a contended server,
// mailbox puts) plus a control side and a mailbox consumer, each of which
// can run through the legacy mechanism or its PR-6 replacement:
//
//	pooled  — Spawn reuses parked worker goroutines vs one goroutine each
//	light   — the control side runs via SpawnFn/UseFn vs a spawned Proc
//	batched — the consumer drains via GetAll vs single Gets
//
// Every combination must produce the identical (time, value) trace.
func modelTrace(seed int64, pooled, light, batched bool) []Time {
	out, _ := modelRun(seed, pooled, light, batched)
	return out
}

// modelRun is modelTrace also returning the kernel's counters after the run.
func modelRun(seed int64, pooled, light, batched bool) ([]Time, KernelStats) {
	k := NewKernel()
	k.SetSpawnPooling(pooled)
	srv := NewServer(k, "cpu", 2)
	ctl := NewServer(k, "ctl", 1)
	mail := NewChan[int](k, "mail")
	rng := rand.New(rand.NewSource(seed))
	var out []Time

	const workers = 40
	for i := 0; i < workers; i++ {
		d := Duration(rng.Intn(900)+1) * Microsecond
		start := Duration(rng.Intn(4000)) * Microsecond
		k.SpawnAt(start, "w", func(p *Proc) {
			srv.Use(p, d)
			out = append(out, p.Now())
			mail.Put(i)
			// Fire-and-forget control message: charge the control server,
			// then record. Never blocks on anything but the CPU hold, so
			// it qualifies for the light path.
			if light {
				k.SpawnFn(func() {
					ctl.UseFn(d/3, func() {
						out = append(out, k.Now())
					})
				})
			} else {
				k.Spawn("ctl", func(cp *Proc) {
					ctl.Use(cp, d/3)
					out = append(out, cp.Now())
				})
			}
			p.Wait(d / 2)
			out = append(out, p.Now())
		})
	}
	k.Spawn("reader", func(p *Proc) {
		if batched {
			var batch []int
			for got := 0; got < workers; {
				batch, _ = mail.GetAll(p, batch[:0])
				for _, v := range batch {
					out = append(out, p.Now()+Time(v))
					got++
				}
			}
		} else {
			for got := 0; got < workers; got++ {
				v, _ := mail.Get(p)
				out = append(out, p.Now()+Time(v))
			}
		}
	})
	// Run in horizon slices so the drain-to-horizon handoff is exercised.
	for h := 500 * Microsecond; k.Pending() > 0; h += 500 * Microsecond {
		k.Run(h)
	}
	k.Shutdown()
	return out, k.Stats()
}

func requireSameTrace(t *testing.T, name string, seed int64, got, want []Time) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s seed %d: trace lengths differ: %d vs %d", name, seed, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s seed %d: traces diverge at %d: %v vs %v", name, seed, i, got[i], want[i])
		}
	}
}

// TestProcessModelEquivalence pins the PR-6 contract: pooled spawns, light
// processes and batched mailbox drains each produce bit-identical traces to
// the mechanisms they replace — individually and all together.
func TestProcessModelEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		base := modelTrace(seed, false, false, false)
		requireSameTrace(t, "pooled", seed, modelTrace(seed, true, false, false), base)
		requireSameTrace(t, "light", seed, modelTrace(seed, false, true, false), base)
		requireSameTrace(t, "batched", seed, modelTrace(seed, false, false, true), base)
		requireSameTrace(t, "all", seed, modelTrace(seed, true, true, true), base)
	}
}

// TestSpawnPoolReuse verifies the pool actually engages: sequential
// ephemeral processes share one worker goroutine, and identity fields are
// reset on each reuse.
func TestSpawnPoolReuse(t *testing.T) {
	k := NewKernel()
	var ids []int64
	var names []string
	var args []int64
	k.Spawn("driver", func(p *Proc) {
		for i := 0; i < 10; i++ {
			k.SpawnArg("child", int64(100+i), func(c *Proc) {
				ids = append(ids, c.ID())
				names = append(names, c.Name())
				args = append(args, c.Arg())
			})
			p.Wait(Millisecond)
		}
	})
	k.RunAll()
	s := k.Stats()
	if s.Spawns != 11 {
		t.Errorf("Spawns = %d, want 11", s.Spawns)
	}
	// The driver takes one worker; after the first child returns its worker,
	// every later child reuses it.
	if s.SpawnReuses != 9 {
		t.Errorf("SpawnReuses = %d, want 9", s.SpawnReuses)
	}
	if s.LiveGoroutines != 2 {
		t.Errorf("LiveGoroutines = %d, want 2 (parked driver + child workers)", s.LiveGoroutines)
	}
	for i := 0; i < 10; i++ {
		if names[i] != "child" || args[i] != int64(100+i) {
			t.Fatalf("child %d identity: name=%q arg=%d", i, names[i], args[i])
		}
		for j := 0; j < i; j++ {
			if ids[i] == ids[j] {
				t.Fatalf("children %d and %d share ID %d", j, i, ids[i])
			}
		}
	}
	k.Shutdown()
	if s := k.Stats(); s.LiveGoroutines != 0 {
		t.Errorf("LiveGoroutines = %d after Shutdown, want 0", s.LiveGoroutines)
	}
}

// TestShutdownKillsBlockedProcs: Shutdown unwinds processes blocked on every
// primitive (calendar wait, server queue, store, mailbox, park), runs their
// defers, and releases all worker goroutines.
func TestShutdownKillsBlockedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	srv := NewServer(k, "cpu", 1)
	st := NewStore(k, "mem", 1)
	mail := NewChan[int](k, "mail")
	defersRun := 0
	body := []func(p *Proc){
		func(p *Proc) { p.Wait(Time(1) * Second) },
		func(p *Proc) { srv.Use(p, Second) },
		func(p *Proc) { srv.Use(p, Second) }, // queued behind the first
		func(p *Proc) { st.Get(p, 1); defer st.Put(1); p.Wait(Second) },
		func(p *Proc) { mail.Get(p) },
		func(p *Proc) { p.Park() },
	}
	for _, fn := range body {
		k.Spawn("victim", func(p *Proc) {
			defer func() { defersRun++ }()
			fn(p)
		})
	}
	k.Run(100 * Millisecond)
	if k.Live() != len(body) {
		t.Fatalf("Live = %d before Shutdown, want %d", k.Live(), len(body))
	}
	k.Shutdown()
	if k.Live() != 0 {
		t.Errorf("Live = %d after Shutdown, want 0", k.Live())
	}
	if defersRun != len(body) {
		t.Errorf("defers ran on %d of %d killed processes", defersRun, len(body))
	}
	if s := k.Stats(); s.LiveGoroutines != 0 {
		t.Errorf("LiveGoroutines = %d after Shutdown, want 0", s.LiveGoroutines)
	}
	// The OS-level goroutines must actually exit (give the scheduler a
	// moment: the workers' final channel receives race the counter).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("%d goroutines alive after Shutdown, %d before kernel creation", g, before)
	}
}

// TestGetAllBatch exercises the drain semantics directly: a burst is
// delivered in one batch in FIFO order, the buffer is reused, and the
// batched counters advance.
func TestGetAllBatch(t *testing.T) {
	k := NewKernel()
	mail := NewChan[int](k, "mail")
	var batches [][]int
	k.Spawn("consumer", func(p *Proc) {
		var buf []int
		for rounds := 0; rounds < 2; rounds++ {
			buf, _ = mail.GetAll(p, buf[:0])
			batches = append(batches, append([]int(nil), buf...))
		}
	})
	k.At(Millisecond, func() {
		for i := 1; i <= 5; i++ {
			mail.Put(i)
		}
	})
	k.At(2*Millisecond, func() {
		mail.Put(6)
		mail.Put(7)
	})
	k.RunAll()
	want := [][]int{{1, 2, 3, 4, 5}, {6, 7}}
	if len(batches) != len(want) {
		t.Fatalf("batches = %v, want %v", batches, want)
	}
	for i := range want {
		if len(batches[i]) != len(want[i]) {
			t.Fatalf("batch %d = %v, want %v", i, batches[i], want[i])
		}
		for j := range want[i] {
			if batches[i][j] != want[i][j] {
				t.Fatalf("batch %d = %v, want %v", i, batches[i], want[i])
			}
		}
	}
	s := k.Stats()
	if s.BatchedGets != 2 || s.BatchedItems != 7 {
		t.Errorf("BatchedGets/Items = %d/%d, want 2/7", s.BatchedGets, s.BatchedItems)
	}
	if mail.Len() != 0 {
		t.Errorf("mailbox holds %d items after drains", mail.Len())
	}
}

// TestCalendarSelfTuning: a workload whose event gaps dwarf the initial
// wheel horizon must trigger widen-only retuning until the gaps fit, while
// preserving exact (time, seq) dispatch order.
func TestCalendarSelfTuning(t *testing.T) {
	k := NewKernel()
	// 100 ms gaps: beyond the 33.6 ms initial horizon (shift 12) and the
	// 67 ms horizon after one doubling; inside the 134 ms horizon of shift
	// 14. Every enqueue overflows until the second widen.
	const gap = 100 * Millisecond
	const population = 8
	fired := 0
	last := Time(-1)
	var tick func()
	tick = func() {
		if k.Now() < last {
			t.Fatalf("clock went backwards: %v after %v", k.Now(), last)
		}
		last = k.Now()
		fired++
		if fired < 3*tuneWindow {
			k.After(gap, tick)
		}
	}
	for i := 0; i < population; i++ {
		k.At(Time(i+1)*Millisecond, tick)
	}
	k.RunAll()
	s := k.Stats()
	if s.WidthResizes != 2 {
		t.Errorf("WidthResizes = %d, want 2", s.WidthResizes)
	}
	if s.WheelShift != calShift+2 {
		t.Errorf("WheelShift = %d, want %d", s.WheelShift, calShift+2)
	}
	if fired < 3*tuneWindow {
		t.Errorf("fired %d events, want >= %d", fired, 3*tuneWindow)
	}
}

// TestCalendarSelfTuningDeterminism: retuning decisions depend only on the
// event stream, so a widened run stays bit-reproducible.
func TestCalendarSelfTuningDeterminism(t *testing.T) {
	trace := func() []Time {
		k := NewKernel()
		rng := rand.New(rand.NewSource(11))
		var out []Time
		n := 0
		var tick func()
		tick = func() {
			out = append(out, k.Now())
			n++
			if n < 2*tuneWindow {
				k.After(Duration(rng.Intn(200)+50)*Millisecond, tick)
			}
		}
		for i := 0; i < 16; i++ {
			k.At(Time(i)*Millisecond, tick)
		}
		k.RunAll()
		if k.Stats().WidthResizes == 0 {
			t.Fatal("workload did not trigger a resize")
		}
		return out
	}
	a, b := trace(), trace()
	requireSameTrace(t, "selftune", 11, a, b)
}
