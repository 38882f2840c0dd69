package sim

import "testing"

// Alloc-regression guard: the six hot paths of the simulator — the raw
// event path, the Wait loop, contended server handoff, a contended
// three-stage route, contended store grants and mailbox ping-pong — must
// stay at zero steady-state allocations. The benchmarks
// document this; this test makes it a CI gate (-short safe, no -bench run
// needed). Any regression here means a new code path allocates per event
// and will show up as runtime.mallocgc in sweep profiles.

// measureSteadyAllocs reports the average allocations of advancing the
// kernel by `step` per call after a warm-up that populates the event pool,
// free lists and goroutine stacks.
func measureSteadyAllocs(t *testing.T, k *Kernel, step Duration) float64 {
	t.Helper()
	horizon := k.Now()
	advance := func() {
		horizon += step
		k.Run(horizon)
	}
	// Warm-up must cover several full calendar-wheel revolutions
	// (calBuckets << calShift ≈ 33.6 ms each): every bucket allocates its
	// backing array on first touch, and because event alignment against
	// the 4.1 µs bucket grid shifts between revolutions, a bucket may not
	// see its peak occupancy — and final capacity — until a few passes
	// in. Pools, free lists and goroutine stacks fill on the way.
	warm := horizon + 5*(Time(calBuckets)<<calShift) + step
	for horizon < warm {
		advance()
	}
	return testing.AllocsPerRun(100, advance)
}

func requireZeroAllocs(t *testing.T, name string, avg float64) {
	t.Helper()
	if avg != 0 {
		t.Errorf("%s: %.2f allocs per horizon advance, want 0", name, avg)
	}
}

func TestHotPathZeroAllocs(t *testing.T) {
	t.Run("eventDispatch", func(t *testing.T) {
		k := NewKernel()
		// Hold model with fixed 640 ns spacing: every 4.1 µs wheel bucket
		// holds 6-7 events at any grid alignment, so each bucket's first
		// fill grows its array to the power-of-two capacity (8) that also
		// covers the worst alignment — capacities saturate in one
		// revolution. (A sparser lattice leaves some buckets one growth
		// step short, and as alignment drifts between revolutions those
		// buckets keep reallocating — a property of the workload shape,
		// not an event-path allocation.)
		const population = 64
		const spacing = 640 * Nanosecond
		var fire func()
		fire = func() { k.At(k.Now()+population*spacing, fire) }
		for i := 0; i < population; i++ {
			k.At(Time(i+1)*spacing, fire)
		}
		requireZeroAllocs(t, "event dispatch", measureSteadyAllocs(t, k, 100*Microsecond))
	})

	t.Run("waitLoop", func(t *testing.T) {
		k := NewKernel()
		stop := false
		k.Spawn("waiter", func(p *Proc) {
			for !stop {
				p.Wait(Microsecond)
			}
		})
		requireZeroAllocs(t, "wait loop", measureSteadyAllocs(t, k, 100*Microsecond))
		stop = true
		k.RunAll()
	})

	t.Run("serverContention", func(t *testing.T) {
		k := NewKernel()
		srv := NewServer(k, "cpu", 2)
		stop := false
		for i := 0; i < 8; i++ {
			k.Spawn("worker", func(p *Proc) {
				for !stop {
					srv.Use(p, Microsecond)
				}
			})
		}
		requireZeroAllocs(t, "server contention", measureSteadyAllocs(t, k, 100*Microsecond))
		stop = true
		k.RunAll()
	})

	t.Run("route", func(t *testing.T) {
		k := NewKernel()
		ctrl, arm := NewServer(k, "ctrl", 1), NewServer(k, "arm", 2)
		stop := false
		for i := 0; i < 8; i++ {
			k.Spawn("io", func(p *Proc) {
				for !stop {
					p.UseRoute(Stage{ctrl, Microsecond}, Stage{arm, 3 * Microsecond}, Stage{ctrl, Microsecond})
				}
			})
		}
		requireZeroAllocs(t, "route", measureSteadyAllocs(t, k, 100*Microsecond))
		stop = true
		k.RunAll()
	})

	t.Run("store", func(t *testing.T) {
		// Requests of 1-3 units against 4: a blocked head holds back later
		// requests that would fit, so grants come in FCFS bursts at a Put.
		k := NewKernel()
		st := NewStore(k, "mem", 4)
		stop := false
		for i := 0; i < 8; i++ {
			n := i%3 + 1
			k.Spawn("txn", func(p *Proc) {
				for !stop {
					st.Get(p, n)
					p.Wait(Microsecond)
					st.Put(n)
				}
			})
		}
		requireZeroAllocs(t, "store", measureSteadyAllocs(t, k, 100*Microsecond))
		stop = true
		k.RunAll()
	})

	t.Run("chanPingPong", func(t *testing.T) {
		k := NewKernel()
		ping := NewChan[int](k, "ping")
		pong := NewChan[int](k, "pong")
		stop := false
		k.Spawn("echo", func(p *Proc) {
			for {
				v, ok := ping.Get(p)
				if !ok {
					return
				}
				pong.Put(v)
			}
		})
		k.Spawn("driver", func(p *Proc) {
			for !stop {
				ping.Put(1)
				pong.Get(p)
				p.Wait(Microsecond)
			}
			ping.Close()
		})
		requireZeroAllocs(t, "chan ping-pong", measureSteadyAllocs(t, k, 100*Microsecond))
		stop = true
		k.RunAll()
	})
}

// TestSpawnZeroAllocs is the PR-6 gate for the million-client scenario: a
// driver spawning one short-lived process per interval (the shape of every
// OLTP transaction and commit participant). With worker pooling the spawn
// path must not allocate in steady state — the Proc, its coroutine and the
// coroutine's stack are all reused from the pool, and the body is hoisted
// so the only per-spawn state is the SpawnArg scalar.
func TestSpawnZeroAllocs(t *testing.T) {
	k := NewKernel()
	stop := false
	var sink int64
	child := func(c *Proc) {
		sink += c.Arg()
		c.Wait(Microsecond)
	}
	k.Spawn("driver", func(p *Proc) {
		for i := int64(0); !stop; i++ {
			k.SpawnArg("child", i, child)
			p.Wait(2 * Microsecond)
		}
	})
	requireZeroAllocs(t, "spawn ephemeral", measureSteadyAllocs(t, k, 100*Microsecond))
	stop = true
	k.RunAll()
	if s := k.Stats(); s.SpawnReuses == 0 {
		t.Error("pool never engaged (SpawnReuses = 0)")
	}
	_ = sink
}
