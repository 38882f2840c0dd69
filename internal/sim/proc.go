package sim

import (
	"fmt"
	"runtime/debug"
)

// Proc is the handle a simulated process uses to interact with the kernel.
// A process is an ordinary function running in a kernel-owned coroutine
// (iter.Pull; see pull); every blocking operation (Wait, Server.Use, Store.Get,
// Chan.Get, ...) suspends the process and transfers dispatch to the kernel,
// which resumes it when the corresponding event fires. Exactly one process
// runs at any instant.
//
// Suspension does not necessarily suspend the coroutine: with the
// continuation fast path a blocking process keeps dispatching events in its
// own context — run-fn events execute inline and its own resume event
// simply returns control.
// Only another process's resume costs a switch: the process yields to the
// root Run loop, which resumes the other one. An uncontended timed hold —
// Wait after an immediate Acquire, Server.Use on a free station — therefore
// runs entirely switch-free when no other process has an intervening turn.
// A contended Server.Use, and a route of station visits (UseRoute), resume
// their process only once, at the end: the kernel starts a queued hold at
// its grant and moves the process between stations itself.
//
// Coroutines are pooled: a process that returns parks its worker coroutine
// on the kernel's free list instead of ending it, and the next Spawn reuses
// it — identity fields (ID, Name, Arg) are reset on reuse, so spawning is
// allocation-free in steady state and the coroutine count is bounded by the
// peak number of live processes, not by the total number ever spawned.
type Proc struct {
	k       *Kernel
	id      int64
	name    string
	next    func() (struct{}, bool) // resumes the coroutine; called outside every process (Run loop, Shutdown)
	yield   func(struct{}) bool     // suspends the coroutine; called by the process itself
	done    bool
	arg     int64
	liveIdx int // index in Kernel.procs while live

	// The route p is being served along (see UseRoute).
	stages   [maxStages]Stage
	nStages  int
	stage    int      // index of the station p is at
	hold     Duration // service time there, stretched on arrival
	queued   bool     // waiting for a server there
	stepNext bool     // p's next resume event goes to Kernel.step instead
	queuedAt Time     // when p joined the server queue it waits in
}

// worker is a pooled process coroutine: a suspended coroutine plus the Proc
// whose identity it lends to successive spawns. fn holds the next body
// between assignment (Spawn) and execution (first resume); it is nil while
// the worker is parked on the free list.
type worker struct {
	proc Proc
	fn   func(*Proc)
}

// killSentinel is the panic payload Shutdown injects into a blocked process
// to unwind its coroutine; runBody recovers exactly this type and re-panics
// everything else.
type killSentinel struct{}

// ProcPanic is the value Kernel.Run panics with when a process body — or an
// event function dispatched in a blocked process's context — panics. The
// panic ends the process's coroutine and surfaces from Run on the caller's
// goroutine; ProcPanic keeps what that crossing would otherwise lose.
type ProcPanic struct {
	Proc  string // name of the process whose coroutine panicked
	Value any    // the original panic value
	Stack []byte // the coroutine's stack at the panic site
}

// Error reports the process, the panic value and the stack of the panic
// site.
func (e *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n\n%s", e.Proc, e.Value, e.Stack)
}

// Unwrap returns the original panic value when it is an error.
func (e *ProcPanic) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// runBody executes a process body, absorbing the Shutdown kill sentinel so
// the caller can run the finish protocol either way. Its deferred recover
// also means a killed body's own defers run — resources held across the
// kill (admission tokens, buffer spaces) are returned like on any return.
// Any other panic retires the process — its coroutine is ending — and is
// re-raised as a *ProcPanic, which iter.Pull carries to the Run loop.
func runBody(p *Proc, fn func(*Proc)) (killed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); !ok {
				p.k.finishProc(p)
				p.k.goroutines--
				panic(&ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()})
			}
			killed = true
		}
	}()
	fn(p)
	return false
}

// newWorker starts a pooled worker coroutine. The loop runs one process
// body per spawn: a finishing body parks the worker on the kernel free list
// and yields to the root loop; resumed with a nil fn, the worker is being
// dismissed (Shutdown adjusts the counters).
func (k *Kernel) newWorker() *worker {
	w := &worker{}
	w.proc.k = k
	k.goroutines++
	w.proc.next = pull(func(yield func(struct{}) bool) {
		p := &w.proc
		p.yield = yield
		for {
			fn := w.fn
			if fn == nil {
				// Dismissed from the free list; the dismisser owns the
				// coroutine counter, so touch nothing.
				return
			}
			w.fn = nil
			// A Shutdown kill arriving before the start event retires the
			// process without running its body.
			killed := k.killing || runBody(p, fn)
			k.finishProc(p)
			if killed {
				k.goroutines--
				return
			}
			// Park for reuse, then hand the ball to the root loop.
			k.freeW = append(k.freeW, w)
			yield(struct{}{})
		}
	})
	return w
}

// finishProc retires a returning (or killed) process: marks it done and
// removes it from the live registry.
func (k *Kernel) finishProc(p *Proc) {
	p.done = true
	last := len(k.procs) - 1
	q := k.procs[last]
	k.procs[p.liveIdx] = q
	q.liveIdx = p.liveIdx
	k.procs[last] = nil
	k.procs = k.procs[:last]
}

// Spawn creates a process named name running fn and schedules its start at
// the current simulated time. It returns immediately; fn runs when the
// kernel reaches the start event.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.spawn(k.now, name, 0, fn)
}

// SpawnAt creates a process whose execution starts at absolute time t.
func (k *Kernel) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	return k.spawn(t, name, 0, fn)
}

// SpawnArg is Spawn carrying a small scalar argument the process reads via
// Proc.Arg. Arrival loops use it to reuse one hoisted closure for every
// spawn — the per-iteration value rides the Proc instead of forcing a fresh
// capture per spawned process.
func (k *Kernel) SpawnArg(name string, arg int64, fn func(p *Proc)) *Proc {
	return k.spawn(k.now, name, arg, fn)
}

func (k *Kernel) spawn(t Time, name string, arg int64, fn func(p *Proc)) *Proc {
	k.procSeq++
	var w *worker
	if n := len(k.freeW); n > 0 {
		w = k.freeW[n-1]
		k.freeW[n-1] = nil
		k.freeW = k.freeW[:n-1]
		k.spawnReuses++
	} else {
		w = k.newWorker()
	}
	w.fn = fn
	p := &w.proc
	p.done = false
	p.id = k.procSeq
	p.name = name
	p.arg = arg
	p.liveIdx = len(k.procs)
	k.procs = append(k.procs, p)
	k.atProc(t, p)
	return p
}

// block suspends the calling process until its next resume event — a Wait
// wake-up scheduled by the caller, or an Unpark/grant from a resource queue
// — is dispatched. The caller must already have arranged for that event (or
// for an eventual unpark).
//
// Continuation fast path: the blocking process becomes the dispatcher. It
// pops events through Kernel.pop, exactly as the root loop would, and
// returns the moment its own resume event comes up — no switch at all.
// When pop returns another process, block names it in Kernel.handoff and
// yields; the root loop resumes the named process. When pop drains the
// horizon, block yields with no process named, and the root Run loop
// returns to its caller; a later Run dispatches the resume event.
func (p *Proc) block() {
	k := p.k
	q := k.pop(k.horizon)
	if q == p {
		k.inlineWakes++
		return
	}
	k.handoff = q
	p.yield(struct{}{})
	if k.killing {
		panic(killSentinel{})
	}
}

// Park suspends the calling process until another component calls Unpark.
// It is the extension point for custom blocking primitives outside package
// sim (lock tables, buffer memory queues, ...). The caller must have
// registered itself somewhere an Unpark will find it.
func (p *Proc) Park() {
	p.k.blocked++
	p.block()
	p.k.blocked--
}

// Unpark schedules a process parked via Park to resume at the current
// simulated time, bypassing the calendar through the kernel's same-instant
// FIFO. It must be called from kernel context (an event function or another
// process's turn). Calling it for a process that is not parked is a bug the
// kernel will surface as a double-resume panic.
func (p *Proc) Unpark() { p.k.atProc(p.k.now, p) }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// ID returns the unique process id (assigned in spawn order).
func (p *Proc) ID() int64 { return p.id }

// Arg returns the scalar argument passed to SpawnArg (zero for processes
// started by Spawn/SpawnAt).
func (p *Proc) Arg() int64 { return p.arg }

// Wait suspends the process for d of simulated time. This is the simulator's
// dominant primitive (every timed hold is a Wait); on the continuation fast
// path an undisturbed Wait costs one calendar insert and one extract, with
// no switch.
func (p *Proc) Wait(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %q waiting negative duration %v", p.name, d))
	}
	if d == 0 {
		return
	}
	p.k.atProc(p.k.now+d, p)
	p.block()
}
