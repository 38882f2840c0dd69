// Package buffer models the main-memory buffer of one processing element as
// described in Section 4 of Rahm & Marek (VLDB '95): a global LRU buffer
// shared by all transactions (no-force, asynchronous writes) plus private
// working spaces reserved per (sub)query (e.g. hash-join hash tables).
//
// Memory is the central contended resource of the paper. The manager
// implements:
//
//   - page-granular Fix/Unfix on the global pool with LRU replacement and
//     asynchronous write-back of dirty victims;
//   - working-space reservation with a FCFS memory queue — a join subquery
//     starts only once its minimal requirement is available (Section 4);
//   - priority-based frame stealing: higher-priority requesters (OLTP) may
//     take frames back from lower-priority working spaces, which is what
//     makes PPHJ "partially preemptible";
//   - free-memory reporting for the control node's LUM / MIN-IO /
//     OPT-IO-CPU strategies.
//
// Accounting: a frame is "in use" if it is pinned by an ongoing operation or
// reserved by a working space. Resident but unpinned global pages are cache
// content, not demand — they are reclaimable and count as available, which
// is what the control node's AVAIL-MEMORY array reports.
package buffer

import (
	"fmt"

	"dynlb/internal/disk"
	"dynlb/internal/sim"
)

// Priority orders requesters for frame stealing; higher values steal from
// lower ones. The paper gives OLTP transactions priority over join queries.
type Priority int

// Priorities used by the engine.
const (
	PriorityQuery Priority = 1
	PriorityOLTP  Priority = 2
)

// DiskHooks let the manager perform page I/O without depending on the
// engine: the engine wires them to the PE's disk subsystem (and charges I/O
// CPU overhead inside the hooks).
type DiskHooks struct {
	// ReadPage synchronously reads pg for the calling process.
	ReadPage func(p *sim.Proc, pg disk.PageID, sequential bool)
	// WriteAsync schedules a background write of pg (no-force policy).
	WriteAsync func(pg disk.PageID)
}

// Manager is the buffer manager of one PE.
type Manager struct {
	k     *sim.Kernel
	name  string
	cap   int
	hooks DiskHooks

	// Global pool state. resident == len(frames); pinned counts frames
	// with pins > 0; reserved counts working-space frames. Frames holding
	// nothing: cap - resident - reserved.
	frames   map[disk.PageID]*frame
	head     *frame // most recently used
	tail     *frame
	free     []*frame // evicted frames, reused by Fix
	resident int
	pinned   int
	reserved int

	spaces []*Space

	frameQ   []*frameWaiter // global Fix waits (served first)
	memQ     []*spaceWaiter // FCFS working-space acquisitions
	draining bool

	fixes, hits, evictions, dirtyEvictions, steals, stolenPages, waits int64
	usedIntegral                                                       float64
	lastAccounted                                                      sim.Time
}

type frame struct {
	id         disk.PageID
	pins       int
	dirty      bool
	prev, next *frame
}

type frameWaiter struct {
	p       *sim.Proc
	granted bool
}

type spaceWaiter struct {
	p       *sim.Proc
	s       *Space
	min     int
	desired int
	granted int
}

// NewManager creates a buffer manager over capacity frames.
func NewManager(k *sim.Kernel, name string, capacity int, hooks DiskHooks) *Manager {
	if capacity < 1 {
		panic(fmt.Sprintf("buffer: %s capacity %d", name, capacity))
	}
	return &Manager{
		k: k, name: name, cap: capacity,
		hooks:  hooks,
		frames: make(map[disk.PageID]*frame),
	}
}

// Cap returns total frames.
func (m *Manager) Cap() int { return m.cap }

// Avail returns frames neither pinned nor reserved: the "free memory" the
// control node sees (resident-but-unpinned cache pages are reclaimable).
func (m *Manager) Avail() int { return m.cap - m.pinned - m.reserved }

// AvailNonQuery returns frames not pinned and not reserved by spaces at or
// above OLTP priority: the free memory PEs report to the control node,
// which ledgers join working-space reservations itself.
func (m *Manager) AvailNonQuery() int {
	var r int
	for _, s := range m.spaces {
		if s.prio >= PriorityOLTP {
			r += s.pages
		}
	}
	return m.cap - m.pinned - r
}

// Used returns pinned + reserved frames (demand, not cache content).
func (m *Manager) Used() int { return m.pinned + m.reserved }

// Reserved returns frames reserved by working spaces.
func (m *Manager) Reserved() int { return m.reserved }

// Pinned returns currently pinned global-pool frames.
func (m *Manager) Pinned() int { return m.pinned }

// Resident returns global-pool pages currently in memory.
func (m *Manager) Resident() int { return m.resident }

// Utilization returns the used fraction right now.
func (m *Manager) Utilization() float64 { return float64(m.Used()) / float64(m.cap) }

// account integrates used frames over time for mean utilization.
func (m *Manager) account() {
	now := m.k.Now()
	m.usedIntegral += float64(now-m.lastAccounted) * float64(m.Used())
	m.lastAccounted = now
}

// MeanUtilization returns the time-averaged used fraction since from, given
// a UsedIntegral snapshot taken at from.
func (m *Manager) MeanUtilization(from sim.Time, usedIntAtFrom float64) float64 {
	m.account()
	window := float64(m.k.Now()-from) * float64(m.cap)
	if window <= 0 {
		return 0
	}
	return (m.usedIntegral - usedIntAtFrom) / window
}

// UsedIntegral returns the integral of used frames over time.
func (m *Manager) UsedIntegral() float64 {
	m.account()
	return m.usedIntegral
}

// Fixes returns the number of Fix calls.
func (m *Manager) Fixes() int64 { return m.fixes }

// Hits returns the number of Fix calls that found the page resident.
func (m *Manager) Hits() int64 { return m.hits }

// Evictions returns replaced global pages; DirtyEvictions those that needed
// a write-back.
func (m *Manager) Evictions() int64 { return m.evictions }

// DirtyEvictions returns evictions that scheduled an asynchronous write.
func (m *Manager) DirtyEvictions() int64 { return m.dirtyEvictions }

// Steals returns the number of successful steal operations.
func (m *Manager) Steals() int64 { return m.steals }

// StolenPages returns the total frames taken from working spaces.
func (m *Manager) StolenPages() int64 { return m.stolenPages }

// Waits returns how many requests had to queue for memory.
func (m *Manager) Waits() int64 { return m.waits }

// rawFree returns frames holding nothing at all.
func (m *Manager) rawFree() int { return m.cap - m.resident - m.reserved }

// Fix pins page pg in the global pool, reading it from disk on a miss (the
// calling process pays the I/O). dirty marks the page modified. It reports
// whether the page was already resident.
func (m *Manager) Fix(p *sim.Proc, pg disk.PageID, dirty, sequential bool, prio Priority) bool {
	m.fixes++
	if f, ok := m.frames[pg]; ok {
		m.hits++
		m.pin(f, dirty)
		m.moveFront(f)
		return true
	}
	m.takeFrame(p, prio)
	// Frame secured (accounted as resident+pinned placeholder); pay the read.
	m.account()
	m.resident++
	m.pinned++
	m.hooks.ReadPage(p, pg, sequential)
	// A concurrent Fix may have inserted pg while we were reading.
	if f, ok := m.frames[pg]; ok {
		m.account()
		m.resident--
		m.pinned--
		m.pin(f, dirty)
		m.moveFront(f)
		m.drain()
		return false
	}
	var f *frame
	if n := len(m.free); n > 0 {
		f = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		f = new(frame)
	}
	*f = frame{id: pg, pins: 1, dirty: dirty}
	m.frames[pg] = f
	m.pushFront(f)
	return false
}

func (m *Manager) pin(f *frame, dirty bool) {
	if f.pins == 0 {
		m.account()
		m.pinned++
	}
	f.pins++
	f.dirty = f.dirty || dirty
}

// Unfix releases one pin on pg.
func (m *Manager) Unfix(pg disk.PageID) {
	f, ok := m.frames[pg]
	if !ok {
		panic(fmt.Sprintf("buffer: %s unfix of non-resident page %v", m.name, pg))
	}
	if f.pins <= 0 {
		panic(fmt.Sprintf("buffer: %s unfix of unpinned page %v", m.name, pg))
	}
	f.pins--
	if f.pins == 0 {
		m.account()
		m.pinned--
		m.drain()
	}
}

// takeFrame secures one physical frame: raw free list, LRU eviction of an
// unpinned page, steal from a lower-priority working space, then wait.
// On return the frame is NOT yet counted; the caller accounts it.
func (m *Manager) takeFrame(p *sim.Proc, prio Priority) {
	for {
		if m.rawFree() > 0 {
			return
		}
		if m.evictOne() {
			continue
		}
		if m.stealFrames(1, prio) > 0 {
			continue
		}
		m.waits++
		w := &frameWaiter{p: p}
		m.frameQ = append(m.frameQ, w)
		p.Park()
		if w.granted {
			return
		}
	}
}

// evictOne removes the least recently used unpinned global page, scheduling
// an asynchronous write if dirty. It reports success.
func (m *Manager) evictOne() bool {
	for f := m.tail; f != nil; f = f.prev {
		if f.pins > 0 {
			continue
		}
		m.evictions++
		if f.dirty {
			m.dirtyEvictions++
			if m.hooks.WriteAsync != nil {
				m.hooks.WriteAsync(f.id)
			}
		}
		m.drop(f)
		return true
	}
	return false
}

// Evict removes pg from the pool if resident and unpinned (used when a
// temporary file is dropped). It reports whether a frame was freed.
func (m *Manager) Evict(pg disk.PageID) bool {
	f, ok := m.frames[pg]
	if !ok || f.pins > 0 {
		return false
	}
	m.drop(f)
	m.drain()
	return true
}

// drop removes an unpinned frame from the pool and keeps it for reuse.
func (m *Manager) drop(f *frame) {
	m.remove(f)
	delete(m.frames, f.id)
	m.free = append(m.free, f)
	m.account()
	m.resident--
}

// stealFrames asks working spaces with priority below prio to release
// frames. Handlers flush partitions and call Space.Release, which raises
// rawFree. Returns the number of frames released.
func (m *Manager) stealFrames(need int, prio Priority) int {
	var got int
	for _, s := range m.spaces {
		if s.prio >= prio || s.onSteal == nil || s.pages <= s.min {
			continue
		}
		got += s.onSteal(need - got)
		if got >= need {
			break
		}
	}
	if got > 0 {
		m.steals++
		m.stolenPages += int64(got)
	}
	return got
}

// drain serves waiters after memory became available: global frame waiters
// first (they model higher-priority page demand), then the FCFS memory queue
// of working-space acquisitions. Re-entrant calls (steal handlers release
// frames mid-drain) fall through to the outer loop.
func (m *Manager) drain() {
	if m.draining {
		return
	}
	m.draining = true
	defer func() { m.draining = false }()
	for len(m.frameQ) > 0 {
		if m.rawFree() < 1 && !m.evictOne() {
			break
		}
		w := m.frameQ[0]
		copy(m.frameQ, m.frameQ[1:])
		m.frameQ[len(m.frameQ)-1] = nil
		m.frameQ = m.frameQ[:len(m.frameQ)-1]
		w.granted = true
		w.p.Unpark()
	}
	for len(m.memQ) > 0 {
		w := m.memQ[0]
		if m.Avail() < w.min {
			// Liveness breaker: reclaim above-minimum frames from running
			// query spaces so the queue head can start with its minimum.
			// Without this, queries whose subjoins hold memory on one node
			// while waiting on another can deadlock each other.
			if m.stealFrames(w.min-m.Avail(), PriorityOLTP) == 0 {
				break
			}
			if m.Avail() < w.min {
				break
			}
		}
		grant := min(w.desired, m.Avail())
		m.reclaim(grant)
		m.account()
		m.reserved += grant
		w.s.pages += grant
		w.granted = grant
		copy(m.memQ, m.memQ[1:])
		m.memQ[len(m.memQ)-1] = nil
		m.memQ = m.memQ[:len(m.memQ)-1]
		w.p.Unpark()
	}
}

// reclaim turns n available frames into raw-free frames by evicting
// unpinned pages as needed. Caller guarantees Avail() >= n.
func (m *Manager) reclaim(n int) {
	for m.rawFree() < n {
		if !m.evictOne() {
			panic(fmt.Sprintf("buffer: %s reclaim(%d) with avail %d: accounting bug", m.name, n, m.Avail()))
		}
	}
}

// lru list helpers.
func (m *Manager) pushFront(f *frame) {
	f.next = m.head
	if m.head != nil {
		m.head.prev = f
	}
	m.head = f
	if m.tail == nil {
		m.tail = f
	}
}

func (m *Manager) remove(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		m.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		m.tail = f.prev
	}
	f.prev, f.next = nil, nil
}

func (m *Manager) moveFront(f *frame) {
	if m.head == f {
		return
	}
	m.remove(f)
	m.pushFront(f)
}
