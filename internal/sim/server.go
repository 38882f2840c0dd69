package sim

import "fmt"

// Server models a multi-server FCFS queueing station (CPUs of a node, a disk
// arm, a disk controller, a network link, ...). Processes occupy one of cap
// identical servers for an explicit service duration via Use (or a run of
// stations via Proc.UseRoute), or bracket a variable-length occupancy with
// Acquire/Release. Only processes queue: a request that finds every server
// busy blocks its process until a Release hands the server over.
//
// Server keeps the time integral of busy servers and of queue length, from
// which utilization and mean queue length are derived.
type Server struct {
	k    *Kernel
	name string
	cap  int
	busy int
	q    []*Proc // waiting processes, FCFS; each records its arrival in queuedAt

	// slow > 1 stretches the service time of every visit that arrives
	// (fault injection: a degraded station); otherwise durations are used
	// as given, with no float multiply.
	slow float64

	lastT     Time
	busyInt   float64 // integral of busy servers over time
	queueInt  float64 // integral of queue length over time
	served    int64
	totalWait Time
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

// SetSlowdown stretches the service time of every visit that arrives from
// now on by f (fault injection: a degraded station): a Use of d, or a
// route stage of d, holds the server for Duration(float64(d) * f), fixed
// when the process arrives at the station. f <= 1 restores normal speed.
func (s *Server) SetSlowdown(f float64) { s.slow = f }

// stretch applies the slowdown factor to a service time. It keeps zero at
// zero and a positive time positive.
func (s *Server) stretch(d Duration) Duration {
	if s.slow > 1 {
		return Duration(float64(d) * s.slow)
	}
	return d
}

// take obtains a free server for an arriving request, if there is one.
func (s *Server) take() bool {
	s.advance()
	if s.busy < s.cap {
		s.busy++
		s.served++
		return true
	}
	return false
}

// enqueue files p at the tail of the FCFS queue as blocked; Release grants
// it the server.
func (s *Server) enqueue(p *Proc) {
	p.queuedAt = s.k.Now()
	s.q = append(s.q, p)
	s.k.blocked++
}

// Acquire obtains one server, queueing FCFS if all are busy.
// The matching Release must be called by the same logical activity.
func (s *Server) Acquire(p *Proc) {
	if s.take() {
		return
	}
	s.enqueue(p)
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
	p := s.q[0]
	copy(s.q, s.q[1:])
	s.q[len(s.q)-1] = nil
	s.q = s.q[:len(s.q)-1]
	s.served++
	s.totalWait += s.k.Now() - p.queuedAt
	// Wake the waiter holding the server (busy is unchanged — the server
	// passed hand to hand): its Acquire returns, or the kernel starts its
	// hold (see Kernel.step).
	p.Unpark()
}

// Use occupies one server for service time d, stretched by the station's
// slowdown: Acquire, hold d, Release, with the same events and statistics.
// A request that queues does not resume at its grant: the kernel starts
// its hold in the dispatch of the grant, and p resumes once, at the end of
// service. A zero-length Use acquires and releases at one instant (when
// queued, p resumes at its grant to release).
func (s *Server) Use(p *Proc, d Duration) {
	if d <= 0 {
		s.useZero(p, d)
		return
	}
	p.stages[0] = Stage{s, d}
	p.visit(1)
}

// useZero is a Use of no duration. It keeps the panic formatting and the
// Acquire frame out of Use's stack frame, which every process inside a
// station visit keeps on its coroutine stack while it waits.
func (s *Server) useZero(p *Proc, d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %q using %q for negative duration %v", p.name, s.name, d))
	}
	s.Acquire(p)
	s.Release()
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

// Stage is one station visit of a route: service time D at server S.
type Stage struct {
	S *Server
	D Duration
}

// maxStages bounds a route; a disk I/O has three stages (controller, arm,
// controller). Proc keeps the stages in a fixed array, so a route
// allocates nothing.
const maxStages = 3

// UseRoute serves p at each stage's station in turn, with the events and
// statistics of consecutive S.Use(p, D) calls, and returns after the last
// service. p resumes once: the kernel moves it from stage to stage in the
// dispatch of the event that would have resumed it — it releases one
// station and arrives at the next, where it starts service or queues — so
// each stage is stretched by the slowdown in force when p arrives there.
// A route with a zero-length stage runs as consecutive Use calls.
func (p *Proc) UseRoute(stages ...Stage) {
	n := copy(p.stages[:], stages)
	for _, st := range p.stages[:n] {
		if st.D <= 0 {
			n = 0 // a zero-length stage: consecutive Use calls
		}
	}
	if n == 0 || n < len(stages) {
		p.useEach(stages)
		return
	}
	p.visit(n)
}

// useEach serves a route that has a zero-length stage as consecutive Use
// calls; it rejects a route longer than maxStages. Like useZero, it keeps
// a cold path out of the frame that a waiting process keeps.
func (p *Proc) useEach(stages []Stage) {
	if len(stages) > maxStages {
		panic(fmt.Sprintf("sim: process %q route of %d stages > %d", p.name, len(stages), maxStages))
	}
	for _, st := range stages {
		st.S.Use(p, st.D)
	}
}

// visit serves p at p.stages[:n], whose durations are positive. p arrives
// at the first station and blocks; Kernel.step carries it through its
// grants and stage changes, and p resumes at the end of its last service
// to release that station.
func (p *Proc) visit(n int) {
	p.nStages, p.stage = n, 0
	p.arrive()
	p.block()
	p.stages[p.stage].S.Release()
}

// arrive brings p to the station of its current stage: it takes a free
// server and schedules the end of service, or queues for one with its
// stretched service time, which Kernel.step starts at the grant.
func (p *Proc) arrive() {
	st := &p.stages[p.stage]
	p.hold = st.S.stretch(st.D)
	if st.S.take() {
		p.stepNext = p.stage+1 < p.nStages
		p.k.atProc(p.k.now+p.hold, p)
		return
	}
	st.S.enqueue(p)
	p.queued, p.stepNext = true, true
}

// step runs in the dispatch of a resume event of q when q.stepNext is set,
// in place of resuming q, and does in kernel context what q would do if
// resumed inside its route: at a grant it starts q's hold; at the end of a
// non-final stage it releases that station and arrives at the next. Either
// schedules what q would have scheduled, with the same sequence number.
func (k *Kernel) step(q *Proc) {
	if q.queued {
		q.queued = false
		q.stepNext = q.stage+1 < q.nStages
		k.blocked--
		k.atProc(k.now+q.hold, q)
		return
	}
	q.stages[q.stage].S.Release()
	q.stage++
	q.arrive()
}
