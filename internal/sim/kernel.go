package sim

import "fmt"

// event is a calendar entry: at time t, resume process p (the hot path:
// Wait wake-ups, unparks) or run fn in kernel context (the general path:
// At/After). Exactly one of p and fn is set. fn must never block; blocking
// work belongs in processes. The calendar and the same-instant FIFO hold
// events by value, so scheduling one allocates nothing in steady state.
type event struct {
	t   Time
	seq int64
	fn  func() // run-fn payload; nil for resume-proc events
	p   *Proc  // resume-proc payload
}

// maxTime is the largest representable simulated time.
const maxTime = Time(1<<63 - 1)

// Kernel owns the simulated clock and the event calendar and drives all
// processes. A Kernel and everything attached to it must be used from a
// single goroutine (the one that calls Run); processes are coroutines the
// kernel resumes from that goroutine and never run concurrently with it.
//
// Scheduling structure: events in the future live in the calendar, a
// binary min-heap of event values (calQueue); events at the current
// instant — unparks and mailbox wake-ups — bypass it through the nowQ FIFO.
// The global order is still exactly (time, seq): a same-time calendar event
// was scheduled earlier, from a past instant, so it has a lower sequence
// number than every nowQ entry and fires first.
//
// Dispatch is cooperative ("the ball"): exactly one context at a time — the
// root Run loop or one process — pops and dispatches events, through one
// function, Kernel.pop. A blocking process keeps dispatching in its own
// context until its own resume event comes up (continuation fast path, no
// switch at all). When another process's turn arrives first, it names that
// process in handoff and yields to the root loop, which resumes it: two
// coroutine switches, no Go scheduler run queue involved. See Proc.block.
type Kernel struct {
	now     Time
	seq     int64
	cq      calQueue
	nowQ    []event
	nowHead int
	handoff *Proc // process a yielding ball holder named; the root loop resumes it next
	running bool
	killing bool // Shutdown in progress: resumes unwind via the kill sentinel
	horizon Time // until of the active Run; valid while running
	blocked int  // processes parked on a resource or mailbox
	procSeq int64

	procs []*Proc   // live processes (spawned, not yet finished), registry order
	freeW []*worker // parked pooled worker coroutines awaiting reuse

	dispatched  int64 // events dispatched since kernel creation
	inlineWakes int64 // blocks resolved in-context, without a switch
	handoffs    int64 // switches into a process coroutine
	goroutines  int   // process coroutines alive (parked, running, or blocked)
	spawnReuses int64 // spawns served by a pooled worker instead of a new coroutine
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Live reports the number of processes that have been spawned and have not
// yet returned.
func (k *Kernel) Live() int { return len(k.procs) }

// Blocked reports the number of processes currently parked waiting for a
// resource, store or mailbox (not those sleeping on the calendar).
func (k *Kernel) Blocked() int { return k.blocked }

// KernelStats is a snapshot of scheduling counters: how events are being
// dispatched and what the process model is costing.
//
// Spawns/SpawnReuses/LiveGoroutines characterize the process pool: in steady
// state SpawnReuses tracks Spawns (every spawn reuses a parked worker) and
// LiveGoroutines stays O(peak live processes) — not O(total spawned).
// LightSpawns is always 0, since every simulated activity is a spawned
// process, and OverflowPushes is always 0, since the calendar is one heap
// with no overflow tier; perfbench still reads both.
//
// InlineWakes and Handoffs count the resume events that resume a process:
// InlineWakes those that a blocked process pops for itself, Handoffs those
// that switch into a process. A resume event that the kernel handles for
// the process — a server grant that starts a hold, a route's move to its
// next station (see Proc.UseRoute) — is dispatched but counts in neither.
type KernelStats struct {
	Dispatched  int64 // events dispatched since kernel creation
	InlineWakes int64 // blocks resolved in-context (continuation fast path, no switch)
	Handoffs    int64 // switches into a process coroutine (each resume by the root loop)

	Spawns         int64 // processes ever spawned (Spawn/SpawnAt/SpawnArg)
	SpawnReuses    int64 // spawns served by a parked pooled worker (no coroutine birth)
	LiveGoroutines int   // process coroutines alive: parked in the pool, running, or blocked
	LightSpawns    int64 // always 0: every activity is a spawned process
	OverflowPushes int64 // always 0: the calendar has no overflow tier
}

// Stats returns the kernel's scheduling counters.
func (k *Kernel) Stats() KernelStats {
	return KernelStats{
		Dispatched:     k.dispatched,
		InlineWakes:    k.inlineWakes,
		Handoffs:       k.handoffs,
		Spawns:         k.procSeq,
		SpawnReuses:    k.spawnReuses,
		LiveGoroutines: k.goroutines,
	}
}

// schedule stamps an event at t with the next sequence number and files it
// under the (time, seq) order: a same-instant event goes to the nowQ FIFO,
// a future one to the calendar. It panics if t is in the simulated past.
func (k *Kernel) schedule(t Time, fn func(), p *Proc) {
	if t < k.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %v < now %v", t, k.now))
	}
	k.seq++
	e := event{t: t, seq: k.seq, fn: fn, p: p}
	if t == k.now {
		k.nowQ = append(k.nowQ, e)
		return
	}
	k.cq.push(e)
}

// At schedules fn to run in kernel context at absolute time t.
// It panics if t is in the simulated past.
//
// "Kernel context" is wherever dispatch is happening: fn executes in the
// Run loop or inside a blocked process's coroutine. A panic escaping fn
// surfaces from Run on the caller's goroutine either way; when fn ran in a
// process's context it arrives wrapped in a *ProcPanic naming that process.
// After such a panic the kernel may only be shut down.
func (k *Kernel) At(t Time, fn func()) { k.schedule(t, fn, nil) }

// atProc schedules p to be resumed at absolute time t (closure-free).
func (k *Kernel) atProc(t Time, p *Proc) { k.schedule(t, nil, p) }

// After schedules fn to run in kernel context d from now.
func (k *Kernel) After(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.At(k.now+d, fn)
}

// next extracts the next event in (time, seq) order with time <= until,
// advancing the clock; ok is false when no such event exists.
func (k *Kernel) next(until Time) (e event, ok bool) {
	if k.nowHead < len(k.nowQ) {
		if k.now > until {
			return event{}, false
		}
		// A same-time calendar event was necessarily scheduled from an
		// earlier instant, so its sequence number is lower than every
		// nowQ entry's: it goes first.
		if len(k.cq) > 0 && k.cq[0].t == k.now {
			return k.cq.pop(), true
		}
		e = k.nowQ[k.nowHead]
		k.nowQ[k.nowHead] = event{}
		k.nowHead++
		if k.nowHead == len(k.nowQ) {
			k.nowQ = k.nowQ[:0]
			k.nowHead = 0
		}
		return e, true
	}
	if len(k.cq) == 0 || k.cq[0].t > until {
		return event{}, false
	}
	e = k.cq.pop()
	k.now = e.t
	return e, true
}

// pop dispatches events in (time, seq) order with time <= until, in the
// calling context, and returns the next process to resume, or nil at the
// horizon. A run-fn event runs here; a resume event of a process inside a
// station visit (stepNext) goes to Kernel.step and resumes no one. Both
// dispatch contexts pop through it: the root loop (Kernel.run) and a
// blocking process (Proc.block).
func (k *Kernel) pop(until Time) *Proc {
	for {
		e, ok := k.next(until)
		if !ok {
			return nil
		}
		k.dispatched++
		if e.p == nil {
			e.fn()
		} else if e.p.stepNext {
			k.step(e.p)
		} else {
			return e.p
		}
	}
}

// Run executes events in timestamp order until the calendar is empty or the
// clock would pass until. It returns the simulated time at which it stopped.
// Events exactly at until are executed. Run may be called repeatedly with
// increasing horizons.
func (k *Kernel) Run(until Time) Time {
	k.run(until)
	if k.now < until {
		k.now = until
	}
	return k.now
}

// RunAll executes events until the calendar is empty, leaving the clock at
// the time of the last event executed.
func (k *Kernel) RunAll() Time {
	k.run(maxTime)
	return k.now
}

// run is the root dispatch loop behind Run and RunAll: it dispatches every
// event with time <= until in (time, seq) order. It hands the ball to the
// process that pop returns and, each time the ball holder yields naming the
// process whose turn came up (see Proc.block), to that one. A ball holder
// that yields without naming one drained the horizon or returned from its
// body, and the root loop pops the next event itself.
func (k *Kernel) run(until Time) {
	if k.running {
		panic("sim: Kernel.Run re-entered")
	}
	k.running = true
	k.horizon = until
	defer func() { k.running = false }()
	for {
		p := k.handoff
		k.handoff = nil
		if p == nil {
			if p = k.pop(until); p == nil {
				return
			}
		}
		if p.done {
			panic(fmt.Sprintf("sim: resuming finished process %q", p.name))
		}
		k.handoffs++
		p.next()
	}
}

// Pending reports the number of scheduled events (calendar and same-instant
// queue).
func (k *Kernel) Pending() int {
	return len(k.cq) + len(k.nowQ) - k.nowHead
}

// Shutdown terminates every live process and dismisses the worker pool,
// releasing all coroutines and the memory their stacks and captured state
// pin. Call it when a simulation is complete (after the final Run and after
// results have been read), and after a panic recovered around Run: without
// it, a long sweep of independent simulations would accumulate one pool of
// parked coroutines per kernel.
//
// Each live process is killed by injecting a panic sentinel at its blocked
// resume point; the unwind runs the process's defers (admission tokens,
// buffer space and locks are returned normally) and is recovered at the
// spawn boundary. Pending calendar events are left in place — they will
// simply never be dispatched. The kernel must not be used for further
// simulation after Shutdown.
func (k *Kernel) Shutdown() {
	if k.running {
		panic("sim: Shutdown during Run")
	}
	k.killing = true
	for len(k.procs) > 0 {
		// Every live process is suspended — blocked, or not yet started —
		// so resuming it with killing set runs its exit protocol, which
		// removes it from the registry before the coroutine ends.
		k.procs[len(k.procs)-1].next()
	}
	k.killing = false
	// Resuming a parked worker with no body to run ends its coroutine.
	for i, w := range k.freeW {
		w.proc.next()
		k.freeW[i] = nil
	}
	k.goroutines -= len(k.freeW)
	k.freeW = k.freeW[:0]
}
