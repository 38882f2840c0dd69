package sim

import "fmt"

// Server models a multi-server FCFS queueing station (CPUs of a node, a disk
// arm, a disk controller, a network link, ...). Processes occupy one of cap
// identical servers for an explicit service duration via Use, or bracket a
// variable-length occupancy with Acquire/Release.
//
// Server keeps the time integral of busy servers and of queue length, from
// which utilization and mean queue length are derived.
type Server struct {
	k    *Kernel
	name string
	cap  int
	busy int
	q    []*serverWaiter
	free []*serverWaiter // recycled waiters; Acquire/Release are alloc-free in steady state

	lastT     Time
	busyInt   float64 // integral of busy servers over time
	queueInt  float64 // integral of queue length over time
	served    int64
	totalWait Time
}

// serverWaiter is a queued request for one server: a blocked process
// (Acquire) or a continuation to grant the server to (UseFn). Exactly one
// of p and fn is set.
type serverWaiter struct {
	p       *Proc
	fn      func()
	arrived Time
}

// NewServer creates a server station with the given capacity (>= 1).
func NewServer(k *Kernel, name string, capacity int) *Server {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: server %q capacity %d < 1", name, capacity))
	}
	return &Server{k: k, name: name, cap: capacity, lastT: k.Now()}
}

// Name returns the server's name.
func (s *Server) Name() string { return s.name }

// Cap returns the number of identical servers at this station.
func (s *Server) Cap() int { return s.cap }

// QueueLen returns the number of processes waiting for a server.
func (s *Server) QueueLen() int { return len(s.q) }

func (s *Server) advance() {
	now := s.k.Now()
	dt := float64(now - s.lastT)
	s.busyInt += dt * float64(s.busy)
	s.queueInt += dt * float64(len(s.q))
	s.lastT = now
}

// Acquire obtains one server, queueing FCFS if all are busy.
// The matching Release must be called by the same logical activity.
func (s *Server) Acquire(p *Proc) {
	s.advance()
	if s.busy < s.cap {
		s.busy++
		s.served++
		return
	}
	var w *serverWaiter
	if n := len(s.free); n > 0 {
		w = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		w = &serverWaiter{}
	}
	w.p, w.arrived = p, s.k.Now()
	s.q = append(s.q, w)
	s.k.blocked++
	p.block()
	s.k.blocked--
}

// Release frees one server and hands it to the head waiter, if any.
// It may be called from process or kernel context.
func (s *Server) Release() {
	s.advance()
	if s.busy <= 0 {
		panic(fmt.Sprintf("sim: server %q released below zero", s.name))
	}
	if len(s.q) == 0 {
		s.busy--
		return
	}
	w := s.q[0]
	copy(s.q, s.q[1:])
	s.q[len(s.q)-1] = nil
	s.q = s.q[:len(s.q)-1]
	s.served++
	s.totalWait += s.k.Now() - w.arrived
	if w.p != nil {
		// A blocked process: resume it. Its Acquire returns holding the
		// server (busy is unchanged — the server passed hand to hand).
		w.p.unpark()
		w.p = nil
	} else {
		// A light waiter: schedule its grant continuation at the same
		// (time, seq) position the unpark event would have had.
		fn := w.fn
		w.fn = nil
		s.k.At(s.k.Now(), fn)
	}
	s.free = append(s.free, w)
}

// Use occupies one server for service time d: Acquire, hold d, Release.
func (s *Server) Use(p *Proc, d Duration) {
	s.Acquire(p)
	p.Wait(d)
	s.Release()
}

// UseFn is Use for run-to-completion light processes (Kernel.SpawnFn):
// occupy one server for d, then run fn in kernel context. Grant, hold and
// release events are allocated at exactly the (time, seq) positions Use's
// are — uncontended with d > 0 one hold event, uncontended with d == 0
// none, contended one grant event per hand-over — so converting a Use call
// site to UseFn is dispatch-order-neutral and results stay bit-identical.
func (s *Server) UseFn(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: server %q UseFn negative duration %v", s.name, d))
	}
	s.advance()
	if s.busy < s.cap {
		s.busy++
		s.served++
		s.holdFn(d, fn)
		return
	}
	var w *serverWaiter
	if n := len(s.free); n > 0 {
		w = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		w = &serverWaiter{}
	}
	w.p, w.arrived = nil, s.k.Now()
	w.fn = func() {
		s.k.blocked--
		s.holdFn(d, fn)
	}
	s.q = append(s.q, w)
	s.k.blocked++
}

// holdFn holds an already-granted server for d, then releases and runs fn.
// It mirrors the Wait(d)+Release tail of Use: d == 0 releases inline (Wait
// is a no-op), d > 0 schedules one event at now+d.
func (s *Server) holdFn(d Duration, fn func()) {
	if d == 0 {
		s.Release()
		fn()
		return
	}
	s.k.At(s.k.Now()+d, func() {
		s.Release()
		fn()
	})
}

// Utilization returns the fraction of server-capacity-time spent busy since
// the given origin-relative accounting began (time 0 or the last Reset).
func (s *Server) Utilization() float64 {
	s.advance()
	elapsed := float64(s.lastT) * float64(s.cap)
	if elapsed == 0 {
		return 0
	}
	return s.busyInt / elapsed
}

// UtilizationSince returns utilization over the window [from, now] given the
// integral snapshot taken at from. Pair with BusyIntegral for warm-up cuts.
func (s *Server) UtilizationSince(from Time, busyIntAtFrom float64) float64 {
	s.advance()
	window := float64(s.lastT-from) * float64(s.cap)
	if window <= 0 {
		return 0
	}
	return (s.busyInt - busyIntAtFrom) / window
}

// BusyIntegral returns the current integral of busy servers over time.
func (s *Server) BusyIntegral() float64 {
	s.advance()
	return s.busyInt
}

// MeanQueueLen returns the time-averaged queue length.
func (s *Server) MeanQueueLen() float64 {
	s.advance()
	if s.lastT == 0 {
		return 0
	}
	return s.queueInt / float64(s.lastT)
}

// Served returns the number of service grants so far.
func (s *Server) Served() int64 { return s.served }

// MeanWait returns the average queueing delay of grants that had to wait,
// averaged over all grants.
func (s *Server) MeanWait() Duration {
	if s.served == 0 {
		return 0
	}
	return Duration(int64(s.totalWait) / s.served)
}
