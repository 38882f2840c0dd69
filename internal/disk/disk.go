// Package disk models the I/O subsystem of one processing element: a set of
// disk servers behind a controller with an LRU disk cache and sequential
// prefetching, following Section 4 of Rahm & Marek (VLDB '95):
//
//   - I/O duration = controller service time (per page) + disk access time +
//     transmission time (per page);
//   - prefetching reads several succeeding pages per physical access at
//     base-access + per-page delay (15 ms + 1 ms/page by default) and caches
//     them, so a 4-page prefetch takes 19 ms;
//   - the controller holds an LRU page cache (200 pages by default).
//
// CPU overhead per I/O (3000 instructions) is charged by the engine at the
// host CPU, not here.
package disk

import (
	"fmt"

	"dynlb/internal/sim"
)

// PageID identifies one page of one storage space (a relation fragment,
// index, log, or temporary partition file).
type PageID struct {
	Space int64
	Page  int64
}

// Params are the timing and cache parameters of the subsystem (paper
// defaults in Defaults).
type Params struct {
	CtrlPerPage     sim.Duration // controller service time per page
	TransferPerPage sim.Duration // transmission time per page
	AvgAccess       sim.Duration // base disk access time per physical I/O
	PrefetchPerPage sim.Duration // additional access delay per prefetched page
	CacheSize       int          // controller LRU cache capacity in pages (0 disables)
	Prefetch        int          // pages fetched per sequential physical I/O (>=1)
}

// Defaults returns the paper's Fig. 4 disk parameters.
func Defaults() Params {
	return Params{
		CtrlPerPage:     1 * sim.Millisecond,
		TransferPerPage: sim.FromMillis(0.4),
		AvgAccess:       15 * sim.Millisecond,
		PrefetchPerPage: 1 * sim.Millisecond,
		CacheSize:       200,
		Prefetch:        4,
	}
}

// Subsystem is the disk subsystem of one PE.
type Subsystem struct {
	k      *sim.Kernel
	ctrl   *sim.Server
	disks  []*sim.Server
	cache  *lru
	params Params

	writes    int64
	cacheHits int64
	physReads int64 // physical accesses (a prefetch run counts once)

	// Background writes waiting to start, in WriteAsync call order, and
	// the one process body that starts them (see WriteAsync).
	async     []asyncWrite
	asyncBody func(p *sim.Proc)
}

type asyncWrite struct {
	dsk int
	pg  PageID
}

// New creates a subsystem with ndisks disk servers and one controller.
func New(k *sim.Kernel, name string, ndisks int, p Params) *Subsystem {
	if ndisks < 1 {
		panic(fmt.Sprintf("disk: %s with %d disks", name, ndisks))
	}
	if p.Prefetch < 1 {
		p.Prefetch = 1
	}
	s := &Subsystem{
		k:      k,
		ctrl:   sim.NewServer(k, name+"/ctrl", 1),
		params: p,
	}
	for i := 0; i < ndisks; i++ {
		s.disks = append(s.disks, sim.NewServer(k, fmt.Sprintf("%s/disk%d", name, i), 1))
	}
	if p.CacheSize > 0 {
		s.cache = newLRU(p.CacheSize)
	}
	s.asyncBody = func(p *sim.Proc) {
		w := s.async[0]
		s.async = append(s.async[:0], s.async[1:]...)
		s.Write(p, w.dsk, w.pg)
	}
	return s
}

// SetSlowdown sets the service-time stretch factor of the whole subsystem,
// the controller and every arm (fault injection). A stage of an I/O in
// flight is stretched by the factor in force when it reaches that station.
// f <= 1 restores normal speed.
func (s *Subsystem) SetSlowdown(f float64) {
	s.ctrl.SetSlowdown(f)
	for _, d := range s.disks {
		d.SetSlowdown(f)
	}
}

// NDisks returns the number of disk servers.
func (s *Subsystem) NDisks() int { return len(s.disks) }

// DiskFor maps a storage space to a disk index (stable assignment).
func (s *Subsystem) DiskFor(space int64) int {
	if space < 0 {
		space = -space
	}
	return int(space % int64(len(s.disks)))
}

// Read performs a synchronous page read by the calling process.
// sequential enables prefetching on a cache miss. It reports whether the
// page was served from the controller cache.
func (s *Subsystem) Read(p *sim.Proc, dsk int, pg PageID, sequential bool) bool {
	if s.cache != nil && s.cache.get(pg) {
		s.cacheHits++
		s.ctrl.Use(p, s.params.CtrlPerPage+s.params.TransferPerPage)
		return true
	}
	n := 1
	if sequential && s.params.Prefetch > 1 {
		n = s.params.Prefetch
	}
	s.physReads++
	// One route: controller, arm, controller. Read, Write and WriteRun call
	// UseRoute themselves: a shared helper's frame would stay on the
	// coroutine stack of every process waiting in an I/O.
	p.UseRoute(
		sim.Stage{S: s.ctrl, D: s.params.CtrlPerPage},
		sim.Stage{S: s.disk(dsk), D: s.params.AvgAccess + sim.Duration(n)*s.params.PrefetchPerPage},
		sim.Stage{S: s.ctrl, D: s.params.TransferPerPage})
	if s.cache != nil {
		for i := 0; i < n; i++ {
			s.cache.put(PageID{Space: pg.Space, Page: pg.Page + int64(i)})
		}
	}
	return false
}

// Write performs a synchronous page write by the calling process. Written
// pages are inserted into the controller cache (they are frequently re-read
// shortly after, e.g. temporary join partitions).
func (s *Subsystem) Write(p *sim.Proc, dsk int, pg PageID) {
	s.writes++
	p.UseRoute(
		sim.Stage{S: s.ctrl, D: s.params.CtrlPerPage},
		sim.Stage{S: s.disk(dsk), D: s.params.AvgAccess + s.params.PrefetchPerPage},
		sim.Stage{S: s.ctrl, D: s.params.TransferPerPage})
	if s.cache != nil {
		s.cache.put(pg)
	}
}

// WriteAsync schedules a background page write that occupies the controller
// and disk without blocking any process (used for no-force buffer flushes).
// The write is queued and a process spawned to perform it; spawned processes
// start at the current instant in spawn order, so each one takes the oldest
// queued write and writes happen in call order.
func (s *Subsystem) WriteAsync(dsk int, pg PageID) {
	s.async = append(s.async, asyncWrite{dsk, pg})
	s.k.Spawn("disk-write-async", s.asyncBody)
}

// WriteRun writes n consecutive pages starting at pg with a single physical
// arm operation (sequential temporary-file output): controller and transfer
// per page, one access plus the per-page sequential delay on the disk.
// Written pages enter the controller cache — temporary partitions are
// typically re-read shortly after.
func (s *Subsystem) WriteRun(p *sim.Proc, dsk int, pg PageID, n int) {
	if n < 1 {
		return
	}
	s.writes += int64(n)
	pages := sim.Duration(n)
	p.UseRoute(
		sim.Stage{S: s.ctrl, D: pages * s.params.CtrlPerPage},
		sim.Stage{S: s.disk(dsk), D: s.params.AvgAccess + pages*s.params.PrefetchPerPage},
		sim.Stage{S: s.ctrl, D: pages * s.params.TransferPerPage})
	if s.cache != nil {
		for i := 0; i < n; i++ {
			s.cache.put(PageID{Space: pg.Space, Page: pg.Page + int64(i)})
		}
	}
}

func (s *Subsystem) disk(i int) *sim.Server {
	if i < 0 || i >= len(s.disks) {
		panic(fmt.Sprintf("disk: index %d of %d", i, len(s.disks)))
	}
	return s.disks[i]
}

// Utilization returns the average utilization across the disk servers.
func (s *Subsystem) Utilization() float64 {
	var u float64
	for _, d := range s.disks {
		u += d.Utilization()
	}
	return u / float64(len(s.disks))
}

// BusyIntegral returns the summed busy-time integral of all disk servers
// (for warm-up-windowed utilization).
func (s *Subsystem) BusyIntegral() float64 {
	var b float64
	for _, d := range s.disks {
		b += d.BusyIntegral()
	}
	return b
}

// UtilizationSince returns average disk utilization over [from, now] given a
// BusyIntegral snapshot at from.
func (s *Subsystem) UtilizationSince(from sim.Time, busyAtFrom float64) float64 {
	window := float64(s.k.Now()-from) * float64(len(s.disks))
	if window <= 0 {
		return 0
	}
	return (s.BusyIntegral() - busyAtFrom) / window
}

// Writes returns the number of page writes.
func (s *Subsystem) Writes() int64 { return s.writes }

// CacheHits returns the number of reads served from the controller cache.
func (s *Subsystem) CacheHits() int64 { return s.cacheHits }

// PhysReads returns physical read accesses (prefetch runs count once).
func (s *Subsystem) PhysReads() int64 { return s.physReads }

// lru is a fixed-capacity LRU set of PageIDs.
type lru struct {
	cap   int
	items map[PageID]*lruNode
	head  *lruNode // most recent
	tail  *lruNode // least recent
}

type lruNode struct {
	id         PageID
	prev, next *lruNode
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, items: make(map[PageID]*lruNode, capacity)}
}

func (l *lru) get(id PageID) bool {
	n, ok := l.items[id]
	if !ok {
		return false
	}
	l.moveFront(n)
	return true
}

func (l *lru) put(id PageID) {
	if n, ok := l.items[id]; ok {
		l.moveFront(n)
		return
	}
	var n *lruNode
	if len(l.items) >= l.cap {
		// Full: the least recent page makes room, and its node is reused.
		n = l.tail
		l.remove(n)
		delete(l.items, n.id)
		n.id = id
	} else {
		n = &lruNode{id: id}
	}
	l.items[id] = n
	l.pushFront(n)
}

func (l *lru) pushFront(n *lruNode) {
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *lru) remove(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *lru) moveFront(n *lruNode) {
	if l.head == n {
		return
	}
	l.remove(n)
	l.pushFront(n)
}

func (l *lru) len() int { return len(l.items) }
