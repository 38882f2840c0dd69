package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// modelRun runs a randomized mix of spawned workers (timed holds on a
// contended server, mailbox puts, a fire-and-forget control process each)
// plus a mailbox consumer, and returns the kernel's counters after the run
// (pinned by TestKernelCountersPinned).
func modelRun(seed int64) KernelStats {
	k := NewKernel()
	srv := NewServer(k, "cpu", 2)
	ctl := NewServer(k, "ctl", 1)
	mail := NewChan[int](k, "mail")
	rng := rand.New(rand.NewSource(seed))

	const workers = 40
	for i := 0; i < workers; i++ {
		d := Duration(rng.Intn(900)+1) * Microsecond
		start := Duration(rng.Intn(4000)) * Microsecond
		k.SpawnAt(start, "w", func(p *Proc) {
			srv.Use(p, d)
			mail.Put(i)
			// Fire-and-forget control message: charge the control server.
			k.Spawn("ctl", func(cp *Proc) { ctl.Use(cp, d/3) })
			p.Wait(d / 2)
		})
	}
	k.Spawn("reader", func(p *Proc) {
		for got := 0; got < workers; got++ {
			mail.Get(p)
		}
	})
	// Run in horizon slices so the drain-to-horizon handoff is exercised.
	for h := 500 * Microsecond; k.Pending() > 0; h += 500 * Microsecond {
		k.Run(h)
	}
	k.Shutdown()
	return k.Stats()
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
// primitive (calendar wait, server queue, store, mailbox, park, and a
// route's stations, queued or in service at its first, middle and last
// stage), runs their defers, and releases all worker goroutines.
func TestShutdownKillsBlockedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	srv := NewServer(k, "cpu", 1)
	st := NewStore(k, "mem", 1)
	mail := NewChan[int](k, "mail")
	a, b, c, d := NewServer(k, "a", 1), NewServer(k, "b", 1), NewServer(k, "c", 1), NewServer(k, "d", 1)
	defersRun := 0
	body := []func(p *Proc){
		func(p *Proc) { p.Wait(Time(1) * Second) },
		func(p *Proc) { srv.Use(p, Second) },
		func(p *Proc) { srv.Use(p, Second) }, // queued behind the first
		func(p *Proc) { st.Get(p, 1); defer st.Put(1); p.Wait(Second) },
		func(p *Proc) { mail.Get(p) },
		func(p *Proc) { p.Park() },
		func(p *Proc) { p.UseRoute(Stage{a, Millisecond}, Stage{b, Second}, Stage{a, Millisecond}) }, // in service at b
		func(p *Proc) { p.UseRoute(Stage{a, Millisecond}, Stage{b, Second}, Stage{a, Millisecond}) }, // queued at b
		func(p *Proc) { p.UseRoute(Stage{c, Second}, Stage{a, Millisecond}, Stage{b, Millisecond}) }, // in service at c
		func(p *Proc) { p.UseRoute(Stage{c, Second}, Stage{a, Millisecond}, Stage{b, Millisecond}) }, // queued at c
		func(p *Proc) { p.UseRoute(Stage{d, Millisecond}, Stage{a, Millisecond}, Stage{d, Second}) }, // in service at d, last
	}
	for _, fn := range body {
		k.Spawn("victim", func(p *Proc) {
			defer func() { defersRun++ }()
			fn(p)
		})
	}
	k.Run(100 * Millisecond)
	// Blocked: the queued Use, the mailbox reader, the parked process and
	// the two processes queued inside routes.
	if k.Live() != len(body) || k.Blocked() != 5 {
		t.Fatalf("Live = %d, Blocked = %d before Shutdown, want %d and 5", k.Live(), k.Blocked(), len(body))
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
