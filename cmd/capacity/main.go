// Command capacity measures the simulator's memory cost per standing
// client and reports how many clients fit in a GB — the capacity figure
// behind the million-client process model (BENCH_kernel.json, PR 6).
//
// A "client" is a closed-loop terminal: a process that sits in think time,
// wakes, and goes back to sleep. The tool stands up -clients of them, lets
// every one reach its blocked state, then samples the live footprint (heap
// plus goroutine stacks, after GC and scavenging — see prof.LiveBytes) and
// divides the delta by the client count. Two process models are measured:
//
//	proc  — each client is a spawned Proc blocked in Wait: one pooled
//	        worker coroutine (its goroutine stack and iter.Pull state),
//	        one calendar event.
//	light — each client is a run-to-completion event chain (the SpawnFn
//	        style): one closure and one calendar event, no goroutine.
//
// Example:
//
//	capacity -clients 200000 -out clients_per_gb.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"dynlb/internal/prof"
	"dynlb/internal/sim"
)

type modelFootprint struct {
	BytesPerClient float64 `json:"bytes_per_client"`
	ClientsPerGB   int64   `json:"clients_per_gb"`
}

type report struct {
	What    string         `json:"what"`
	Clients int            `json:"clients"`
	Go      string         `json:"go"`
	Proc    modelFootprint `json:"proc_clients"`
	Light   modelFootprint `json:"light_clients"`
}

func footprint(n int, build func(k *sim.Kernel)) modelFootprint {
	base := prof.LiveBytes()
	k := sim.NewKernel()
	build(k)
	// Run past every client's staggered start so each one is parked in its
	// think-time wait; the footprint sampled here is the standing cost.
	k.Run(2 * sim.Millisecond)
	per := float64(prof.LiveBytes()-base) / float64(n)
	k.Shutdown()
	return modelFootprint{
		BytesPerClient: per,
		ClientsPerGB:   int64(float64(1<<30) / per),
	}
}

func main() {
	clients := flag.Int("clients", 200000, "number of standing clients to measure")
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	flag.Parse()

	n := *clients
	const think = sim.Second

	procs := footprint(n, func(k *sim.Kernel) {
		client := func(p *sim.Proc) {
			for {
				p.Wait(think)
			}
		}
		for i := 0; i < n; i++ {
			// Stagger starts across 1 ms so wake-ups spread over the wheel
			// instead of piling into one calendar bucket.
			k.SpawnAt(sim.Duration(i%1000)*sim.Microsecond, "client", client)
		}
	})

	light := footprint(n, func(k *sim.Kernel) {
		for i := 0; i < n; i++ {
			var tick func()
			tick = func() { k.After(think, tick) }
			k.At(sim.Time(i%1000)*sim.Microsecond, tick)
		}
	})

	r := report{
		What: "standing closed-loop clients per GB of live footprint " +
			"(heap + goroutine stacks after GC/scavenge), sampled with every client blocked in think time",
		Clients: n,
		Go:      runtime.Version(),
		Proc:    procs,
		Light:   light,
	}
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "capacity:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "capacity:", err)
		os.Exit(1)
	}
}
