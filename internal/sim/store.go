package sim

import "fmt"

// Store is a counting resource (memory frames, multiprogramming-level
// tokens). Get blocks FCFS until the requested amount is available; the head
// of the queue blocks all later requests even if those could be satisfied —
// exactly the paper's FCFS memory queue semantics.
type Store struct {
	k     *Kernel
	name  string
	cap   int
	level int
	q     []storeWaiter // FCFS requests

	lastT   Time
	usedInt float64
}

type storeWaiter struct {
	p *Proc
	n int
}

// NewStore creates a store with the given capacity, initially full.
func NewStore(k *Kernel, name string, capacity int) *Store {
	if capacity < 0 {
		panic(fmt.Sprintf("sim: store %q capacity %d < 0", name, capacity))
	}
	return &Store{k: k, name: name, cap: capacity, level: capacity, lastT: k.Now()}
}

// Name returns the store's name.
func (st *Store) Name() string { return st.name }

// Cap returns the store capacity.
func (st *Store) Cap() int { return st.cap }

// Level returns the currently available amount.
func (st *Store) Level() int { return st.level }

// QueueLen returns the number of waiting requests.
func (st *Store) QueueLen() int { return len(st.q) }

func (st *Store) advance() {
	now := st.k.Now()
	dt := float64(now - st.lastT)
	st.usedInt += dt * float64(st.cap-st.level)
	st.lastT = now
}

// Get acquires n units, blocking FCFS while unavailable.
func (st *Store) Get(p *Proc, n int) {
	if n < 0 || n > st.cap {
		panic(fmt.Sprintf("sim: store %q get %d (cap %d)", st.name, n, st.cap))
	}
	st.advance()
	if len(st.q) == 0 && st.level >= n {
		st.level -= n
		return
	}
	st.q = append(st.q, storeWaiter{p, n})
	st.k.blocked++
	p.block()
	st.k.blocked--
}

// Put returns n units and wakes queued requests that now fit, in FCFS order.
func (st *Store) Put(n int) {
	if n < 0 {
		panic(fmt.Sprintf("sim: store %q put %d", st.name, n))
	}
	st.advance()
	st.level += n
	if st.level > st.cap {
		panic(fmt.Sprintf("sim: store %q overfilled: level %d cap %d", st.name, st.level, st.cap))
	}
	st.drain()
}

func (st *Store) drain() {
	for len(st.q) > 0 && st.level >= st.q[0].n {
		w := st.q[0]
		copy(st.q, st.q[1:])
		st.q[len(st.q)-1] = storeWaiter{}
		st.q = st.q[:len(st.q)-1]
		st.level -= w.n
		w.p.Unpark()
	}
}

// MeanUsed returns the time-averaged amount in use.
func (st *Store) MeanUsed() float64 {
	st.advance()
	if st.lastT == 0 {
		return 0
	}
	return st.usedInt / float64(st.lastT)
}

// Utilization returns time-averaged used fraction of capacity.
func (st *Store) Utilization() float64 {
	if st.cap == 0 {
		return 0
	}
	return st.MeanUsed() / float64(st.cap)
}
