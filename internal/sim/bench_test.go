package sim

import "testing"

// The process benchmarks drive b.N operations through a single long Run
// horizon, the regime the engine actually runs in (one Run(warmup), one
// Run(warmup+measure)): the continuation fast path is active and a blocked
// process dispatches its own wake-up in-context. Each has a Parked variant
// with the fast path disabled — the pre-continuation park/resume behavior —
// so the switch cost the fast path removes is measured in the same binary.

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

// benchWaitLoop measures the steady-state cost of one Proc.Wait: one
// calendar insert and one extract. With the fast path (inline=true) the
// waiter dispatches its own wake-up and never switches goroutines; without
// it every Wait pays the two switches of a park/resume pair. ns/op here
// bounds overall simulator throughput — Wait is the dominant primitive of
// every simulation run. allocs/op must be 0 in steady state either way.
func benchWaitLoop(b *testing.B, inline bool) {
	k := NewKernel()
	k.SetInlineDispatch(inline)
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

func BenchmarkKernelWaitLoop(b *testing.B)       { benchWaitLoop(b, true) }
func BenchmarkKernelWaitLoopParked(b *testing.B) { benchWaitLoop(b, false) }

// benchServerContention measures a contended FCFS station: 8 processes
// sharing a 2-server station, so most Use calls queue (park on the waiter
// list) and every Release hands off to a queued process. The fast path
// turns each of those handoffs into a direct process-to-process switch
// instead of a round trip through the root loop.
func benchServerContention(b *testing.B, inline bool) {
	const procs = 8
	k := NewKernel()
	k.SetInlineDispatch(inline)
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

func BenchmarkServerContention(b *testing.B)       { benchServerContention(b, true) }
func BenchmarkServerContentionParked(b *testing.B) { benchServerContention(b, false) }

// benchChanPingPong measures mailbox latency: two processes bouncing a
// token through a pair of Chans, i.e. two Put/Get pairs (wake + handoff)
// per iteration, with the consumer always parked when Put arrives.
func benchChanPingPong(b *testing.B, inline bool) {
	k := NewKernel()
	k.SetInlineDispatch(inline)
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

func BenchmarkChanPingPong(b *testing.B)       { benchChanPingPong(b, true) }
func BenchmarkChanPingPongParked(b *testing.B) { benchChanPingPong(b, false) }

// BenchmarkUncontendedUse measures Server.Use on a free station — the
// engine's hottest call shape (pe.compute charging a CPU hold): Acquire
// succeeds immediately and the timed hold is a pure continuation. With the
// fast path this is Acquire + calendar insert/extract + Release with zero
// goroutine switches.
func benchUncontendedUse(b *testing.B, inline bool) {
	k := NewKernel()
	k.SetInlineDispatch(inline)
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

func BenchmarkUncontendedUse(b *testing.B)       { benchUncontendedUse(b, true) }
func BenchmarkUncontendedUseParked(b *testing.B) { benchUncontendedUse(b, false) }

// benchSpawnEphemeral measures the full lifecycle of a short-lived process
// — spawn, one timed hold, return — the shape of every OLTP transaction,
// commit participant and control helper in the engine. With pooling the
// spawn hands the body to a parked worker and resumes its coroutine: no
// coroutine birth, no Proc allocation. The Unpooled variant pays a fresh
// coroutine per spawn — the pre-PR-6 behavior.
func benchSpawnEphemeral(b *testing.B, pooled bool) {
	k := NewKernel()
	k.SetSpawnPooling(pooled)
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

func BenchmarkSpawnEphemeral(b *testing.B)         { benchSpawnEphemeral(b, true) }
func BenchmarkSpawnEphemeralUnpooled(b *testing.B) { benchSpawnEphemeral(b, false) }

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
