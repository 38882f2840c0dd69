package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// modelTrace is the reference workload for process-model equivalence: a
// randomized mix of spawned workers (timed holds on a contended server,
// mailbox puts, a fire-and-forget control process each) plus a mailbox
// consumer, run with Spawn reusing parked worker coroutines (pooled) or
// starting one coroutine per process. Both must produce the identical
// (time, value) trace.
func modelTrace(seed int64, pooled bool) []Time {
	out, _ := modelRun(seed, pooled)
	return out
}

// modelRun is modelTrace also returning the kernel's counters after the run.
func modelRun(seed int64, pooled bool) ([]Time, KernelStats) {
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
			// then record.
			k.Spawn("ctl", func(cp *Proc) {
				ctl.Use(cp, d/3)
				out = append(out, cp.Now())
			})
			p.Wait(d / 2)
			out = append(out, p.Now())
		})
	}
	k.Spawn("reader", func(p *Proc) {
		for got := 0; got < workers; got++ {
			v, _ := mail.Get(p)
			out = append(out, p.Now()+Time(v))
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

// TestProcessModelEquivalence pins the pooling contract: pooled spawns
// produce bit-identical traces to one coroutine per process.
func TestProcessModelEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		requireSameTrace(t, "pooled", seed, modelTrace(seed, true), modelTrace(seed, false))
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
