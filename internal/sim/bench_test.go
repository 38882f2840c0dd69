package sim

import "testing"

// The process benchmarks drive b.N operations through a single long Run
// horizon, the regime the engine actually runs in (one Run(warmup), one
// Run(warmup+measure)): a blocked process dispatches its own wake-up
// in-context.

// BenchmarkEventDispatch measures the raw event path — one calendar insert
// plus one extract and dispatch per operation — with no process handoff,
// using the classic hold model: a steady population of 256 pending events,
// each rescheduling itself one population-width ahead when it fires. This
// isolates the calendar queue and the event pool from goroutine-switch
// costs.
func BenchmarkEventDispatch(b *testing.B) {
	k := NewKernel()
	const population = 256
	var fire func()
	fire = func() { k.At(k.Now()+population*Microsecond, fire) }
	for i := 0; i < population; i++ {
		k.At(Time(i+1)*Microsecond, fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Run(Time(i+1) * Microsecond) // exactly one event per horizon
	}
}

// BenchmarkKernelWaitLoop measures the steady-state cost of one Proc.Wait:
// one calendar insert and one extract. The waiter dispatches its own
// wake-up and never switches coroutines. ns/op here bounds overall
// simulator throughput — Wait is the dominant primitive of every
// simulation run. allocs/op must be 0 in steady state.
func BenchmarkKernelWaitLoop(b *testing.B) {
	k := NewKernel()
	n := 0
	k.Spawn("waiter", func(p *Proc) {
		for ; n < b.N; n++ {
			p.Wait(Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.RunAll()
}

// BenchmarkServerContention measures a contended FCFS station: 8 processes
// sharing a 2-server station, so most Use calls queue (park on the waiter
// list) and every Release hands the server to a queued process. The kernel
// starts that process's hold at the grant, without a switch; the process
// resumes at the end of its service, through the root loop unless it is
// the dispatcher itself.
func BenchmarkServerContention(b *testing.B) {
	const procs = 8
	k := NewKernel()
	srv := NewServer(k, "cpu", 2)
	n := 0
	for i := 0; i < procs; i++ {
		k.Spawn("worker", func(p *Proc) {
			for n < b.N {
				n++
				srv.Use(p, Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.RunAll()
}

// BenchmarkChanPingPong measures mailbox latency: two processes bouncing a
// token through a pair of Chans, i.e. two Put/Get pairs (wake + handoff)
// per iteration, with the consumer always parked when Put arrives.
func BenchmarkChanPingPong(b *testing.B) {
	k := NewKernel()
	ping := NewChan[int](k, "ping")
	pong := NewChan[int](k, "pong")
	n := 0
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
		for ; n < b.N; n++ {
			ping.Put(1)
			pong.Get(p)
			p.Wait(Microsecond) // advance the clock between rounds
		}
		ping.Close()
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.RunAll()
}

// BenchmarkUncontendedUse measures Server.Use on a free station — the
// engine's hottest call shape (pe.compute charging a CPU hold): Acquire
// succeeds immediately and the timed hold is a pure continuation — Acquire
// + calendar insert/extract + Release with zero coroutine switches.
func BenchmarkUncontendedUse(b *testing.B) {
	k := NewKernel()
	srv := NewServer(k, "cpu", 1)
	n := 0
	k.Spawn("worker", func(p *Proc) {
		for ; n < b.N; n++ {
			srv.Use(p, Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.RunAll()
}

// BenchmarkSpawnEphemeral measures the full lifecycle of a short-lived
// process — spawn, one timed hold, return — the shape of every OLTP
// transaction, commit participant and control helper in the engine. The
// spawn hands the body to a parked worker and resumes its coroutine: no
// coroutine birth, no Proc allocation.
func BenchmarkSpawnEphemeral(b *testing.B) {
	k := NewKernel()
	n := 0
	child := func(c *Proc) {
		c.Wait(Microsecond)
	}
	k.Spawn("driver", func(p *Proc) {
		for ; n < b.N; n++ {
			k.Spawn("child", child)
			p.Wait(2 * Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.RunAll()
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkChanBurstSingleGet measures consuming a 16-message burst with
// one Get per message: only the first Get of a burst blocks, so the burst
// costs its consumer one wake-up. ns/op is per message.
func BenchmarkChanBurstSingleGet(b *testing.B) {
	const burst = 16
	k := NewKernel()
	mail := NewChan[int](k, "mail")
	n := 0
	k.Spawn("producer", func(p *Proc) {
		for ; n < b.N; n += burst {
			for i := 0; i < burst; i++ {
				mail.Put(i)
			}
			p.Wait(Microsecond)
		}
		mail.Close()
	})
	k.Spawn("consumer", func(p *Proc) {
		for {
			if _, ok := mail.Get(p); !ok {
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.RunAll()
}
